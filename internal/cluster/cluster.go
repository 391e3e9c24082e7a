// Package cluster promotes the partition to the unit of placement: N
// simulated nodes replicate the map's journal partitions over a
// deterministic in-process RPC fabric, with per-partition leases electing a
// serving replica, one sealed segment per ship (a routine round and a rejoin
// catch-up alike), and a placement implementation that routes the lookup
// API's point reads to follower replicas.
//
// The ingest pipeline stays singular — the paper's architecture has one
// scan pipeline feeding many serving replicas, and the simulation keeps
// that shape: the wrapped core.Map is the origin of truth, and nodes hold
// replica journals built purely from the replication log. A 1-node cluster
// is the degenerate case and serves bit-identically to the serial map; the
// chaos harness proves the general case by diffing any node count and kill
// schedule against the serial run.
package cluster

import (
	"errors"
	"fmt"

	"censysmap/internal/core"
	"censysmap/internal/cqrs"
	"censysmap/internal/journal"
	"censysmap/internal/telemetry"
)

// NodeFault schedules one node kill in a cluster run: the node dies at the
// start of round Round and rejoins Down rounds later.
type NodeFault struct {
	Round int
	Node  int
	Down  int
}

// LeaseRounds is a lease's lifetime in replication rounds: a dead leader's
// partitions go unserved until expiry, then fail over.
const LeaseRounds = 2

// maxReplicationFactor caps the replica count per partition; a cluster of
// fewer nodes places a replica on every node.
const maxReplicationFactor = 3

// Config sizes and parameterizes a cluster.
type Config struct {
	// Nodes is the cluster size. 1 is the degenerate single-node placement.
	Nodes int
	// Faults is the node-kill schedule, applied at round starts.
	Faults []NodeFault
	// Telemetry optionally registers the censys_cluster_* and
	// censys_replication_* families.
	Telemetry *telemetry.Registry
}

// lease is one partition's serving grant.
type lease struct {
	leader  int // node index, -1 while unserved
	epoch   uint64
	expires int // round after which a dead leader's grant lapses
}

// node is one simulated cluster member: a replica journal, a read path over
// it, and per-partition applied offsets into the replication logs.
type node struct {
	name      string
	store     *journal.Store
	reader    *cqrs.Reader
	applied   []int
	alive     bool
	downUntil int
}

// Stats is a point-in-time copy of the cluster's counters.
type Stats struct {
	Rounds         int
	Failovers      uint64
	Rebalances     uint64
	RecordsShipped uint64
	BytesShipped   uint64
	CatchupShips   uint64
	MaxLagRecords  int
	RPCCalls       map[string]uint64
	RPCBytes       map[string]uint64
}

// Cluster replicates a map's partitions across simulated nodes and serves
// as its placement. Not safe for concurrent Steps; like the map's own tick,
// the replication round is part of the deterministic simulation loop.
type Cluster struct {
	m      *core.Map
	cfg    Config
	src    *journal.Store
	parts  int
	nodes  []*node
	logs   []*plog
	leases []lease
	round  int
	fab    *fabric
	tel    *clusterTel

	failovers, rebalances        uint64
	recordsShipped, bytesShipped uint64
	catchupShips                 uint64
	maxLag                       int
}

// New builds a cluster over the map and installs itself as the map's
// placement: from here on the lookup API routes point reads to serving
// replicas and reports quorum health in its degraded header.
func New(m *core.Map, cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, errors.New("cluster: need at least one node")
	}
	for _, f := range cfg.Faults {
		if f.Node < 0 || f.Node >= cfg.Nodes {
			return nil, fmt.Errorf("cluster: fault targets node %d of %d", f.Node, cfg.Nodes)
		}
		if f.Round < 1 || f.Down < 1 {
			return nil, fmt.Errorf("cluster: fault %+v needs round >= 1 and down >= 1", f)
		}
	}
	src := m.Journal()
	c := &Cluster{
		m: m, cfg: cfg, src: src, parts: src.Partitions(),
		fab: newFabric(),
	}
	c.tel = attachTelemetry(cfg.Telemetry, cfg.Nodes, c.parts)
	for i := 0; i < cfg.Nodes; i++ {
		st := journal.NewPartitioned(c.parts)
		c.nodes = append(c.nodes, &node{
			name:    fmt.Sprintf("node-%d", i),
			store:   st,
			reader:  m.ReaderOver(st),
			applied: make([]int, c.parts),
			alive:   true,
		})
	}
	c.logs = make([]*plog, c.parts)
	c.leases = make([]lease, c.parts)
	for p := 0; p < c.parts; p++ {
		c.logs[p] = newPlog()
		c.leases[p] = lease{leader: p % cfg.Nodes, epoch: 1, expires: LeaseRounds}
	}
	m.SetPlacement(c)
	c.updateGauges()
	return c, nil
}

// replicationFactor is the replica count per partition.
func (c *Cluster) replicationFactor() int { return min(maxReplicationFactor, c.cfg.Nodes) }

// replicas lists partition p's replica nodes in placement-preference order:
// the home node first, then the next replicationFactor()-1 nodes
// round-robin.
func (c *Cluster) replicas(p int) []int {
	out := make([]int, c.replicationFactor())
	for i := range out {
		out[i] = (p + i) % c.cfg.Nodes
	}
	return out
}

// Step drives one replication round: apply scheduled node faults, run the
// map (the advance closure — ingest ticks, query traffic, anything), then
// extract the round's journal delta, ship to replicas, and maintain leases.
func (c *Cluster) Step(advance func()) error {
	c.round++
	c.applyFaults()
	if advance != nil {
		advance()
	}
	if err := c.replicate(); err != nil {
		return err
	}
	c.maintainLeases()
	c.tel.rounds.Inc()
	c.updateGauges()
	return nil
}

func (c *Cluster) applyFaults() {
	for _, n := range c.nodes {
		if !n.alive && c.round >= n.downUntil {
			n.alive = true
		}
	}
	for _, f := range c.cfg.Faults {
		if f.Round == c.round {
			n := c.nodes[f.Node]
			n.alive = false
			n.downUntil = f.Round + f.Down
		}
	}
}

func (c *Cluster) replicate() error {
	for p := 0; p < c.parts; p++ {
		lg := c.logs[p]
		lg.extract(c.src.DumpPartition(p))
		for _, ni := range c.replicas(p) {
			n := c.nodes[ni]
			if !n.alive || n.applied[p] >= len(lg.records) {
				continue
			}
			seg, catchup := lg.ship(p, n.applied[p])
			size := len(seg)
			c.fab.record(rpcShip, size)
			c.tel.rpc.With(rpcShip).Inc()
			newOff, err := applyShipment(n.store, p, n.applied[p], seg)
			if err != nil {
				return fmt.Errorf("cluster: ship to %s: %w", n.name, err)
			}
			c.recordsShipped += uint64(newOff - n.applied[p])
			c.bytesShipped += uint64(size)
			c.tel.recordsShipped.Add(uint64(newOff - n.applied[p]))
			c.tel.bytesShipped.Add(uint64(size))
			if catchup {
				c.catchupShips++
				c.tel.catchupShips.Inc()
			}
			n.applied[p] = newOff
		}
	}
	return nil
}

func (c *Cluster) maintainLeases() {
	for p := range c.leases {
		ls := &c.leases[p]
		home := p % c.cfg.Nodes
		if ls.leader >= 0 && c.nodes[ls.leader].alive {
			ls.expires = c.round + LeaseRounds
			c.fab.record(rpcRenew, 0)
			c.tel.rpc.With(rpcRenew).Inc()
			// Rebalance: hand the lease back to a caught-up home node.
			if ls.leader != home && c.nodes[home].alive &&
				c.nodes[home].applied[p] >= len(c.logs[p].records) {
				ls.leader = home
				ls.epoch++
				ls.expires = c.round + LeaseRounds
				c.rebalances++
				c.tel.rebalances.Inc()
				c.fab.record(rpcRebalance, 0)
				c.tel.rpc.With(rpcRebalance).Inc()
			}
			continue
		}
		// Leader dead (or none). Honor an unexpired lease — the unserved
		// window is the price of lease-based serving — then fail over to
		// the most caught-up alive replica, preferring placement order.
		if ls.leader >= 0 && c.round < ls.expires {
			continue
		}
		best, bestApplied := -1, -1
		for _, ni := range c.replicas(p) {
			n := c.nodes[ni]
			if n.alive && n.applied[p] > bestApplied {
				best, bestApplied = ni, n.applied[p]
			}
		}
		if best < 0 {
			ls.leader = -1
			continue
		}
		ls.leader = best
		ls.epoch++
		ls.expires = c.round + LeaseRounds
		c.failovers++
		c.tel.failovers.Inc()
		c.fab.record(rpcGrant, 0)
		c.tel.rpc.With(rpcGrant).Inc()
	}
}

func (c *Cluster) updateGauges() {
	alive := 0
	for _, n := range c.nodes {
		if n.alive {
			alive++
		}
	}
	degraded, unserved := 0, 0
	var epochMax uint64
	for p := 0; p < c.parts; p++ {
		rt := c.Route(p)
		switch {
		case rt.Unserved:
			unserved++
		case rt.Degraded:
			degraded++
		}
		if c.leases[p].epoch > epochMax {
			epochMax = c.leases[p].epoch
		}
	}
	c.maxLag = 0
	for p := 0; p < c.parts; p++ {
		for _, ni := range c.replicas(p) {
			if lag := len(c.logs[p].records) - c.nodes[ni].applied[p]; lag > c.maxLag {
				c.maxLag = lag
			}
		}
	}
	c.tel.nodesAlive.Set(float64(alive))
	c.tel.partsDegraded.Set(float64(degraded))
	c.tel.partsUnserved.Set(float64(unserved))
	c.tel.maxLagRecords.Set(float64(c.maxLag))
	c.tel.leaseEpochMax.Set(float64(epochMax))
}

// Partitions implements core.Placement.
func (c *Cluster) Partitions() int { return c.parts }

// Route implements core.Placement: the lease holder serves; a partition is
// degraded below replica majority or with a lagging serving replica, and
// unserved while its lease holder is dead or absent.
func (c *Cluster) Route(p int) core.Route {
	ls := c.leases[p]
	if ls.leader < 0 || !c.nodes[ls.leader].alive {
		return core.Route{Degraded: true, Unserved: true}
	}
	alive := 0
	for _, ni := range c.replicas(p) {
		if c.nodes[ni].alive {
			alive++
		}
	}
	rt := core.Route{Node: c.nodes[ls.leader].name}
	if alive < c.replicationFactor()/2+1 ||
		c.nodes[ls.leader].applied[p] < len(c.logs[p].records) {
		rt.Degraded = true
	}
	return rt
}

// ReaderFor implements core.Placement: reads route to the serving replica's
// journal, enriched identically to the map's own read path.
func (c *Cluster) ReaderFor(p int) *cqrs.Reader {
	ls := c.leases[p]
	if ls.leader < 0 {
		return nil
	}
	return c.nodes[ls.leader].reader
}

// Round reports the rounds driven so far.
func (c *Cluster) Round() int { return c.round }

// Nodes reports the cluster size.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// NodeName returns node i's name as surfaced in ServingNodeHeader.
func (c *Cluster) NodeName(i int) string { return c.nodes[i].name }

// NodeStore exposes node i's replica journal (the differential harness
// digests it against the serial run's partitions).
func (c *Cluster) NodeStore(i int) *journal.Store { return c.nodes[i].store }

// Serving reports the node currently holding partition p's lease.
func (c *Cluster) Serving(p int) (nodeIdx int, ok bool) {
	ls := c.leases[p]
	if ls.leader < 0 || !c.nodes[ls.leader].alive {
		return -1, false
	}
	return ls.leader, true
}

// Stats snapshots the cluster's counters.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Rounds:         c.round,
		Failovers:      c.failovers,
		Rebalances:     c.rebalances,
		RecordsShipped: c.recordsShipped,
		BytesShipped:   c.bytesShipped,
		CatchupShips:   c.catchupShips,
		MaxLagRecords:  c.maxLag,
		RPCCalls:       make(map[string]uint64, len(c.fab.calls)),
		RPCBytes:       make(map[string]uint64, len(c.fab.calls)),
	}
	for _, m := range c.fab.methods() {
		st.RPCCalls[m] = c.fab.calls[m]
		st.RPCBytes[m] = c.fab.bytes[m]
	}
	return st
}
