package chaos

// Cluster differential harness: drive a replicated multi-node censysd over
// the same deterministic universe as a serial run and hold every external
// surface to bit-identity — ingest observation, per-partition replica state
// on the serving nodes, and the answers follower reads give through the
// placement-routed lookup path. Node kills and rejoins (quorum-preserving)
// must not change any of it once the cluster has healed.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"censysmap/internal/cluster"
	"censysmap/internal/cqrs"
	"censysmap/internal/draw"
	"censysmap/internal/shard"
)

// NodeFaults parameterizes a derived node-kill schedule.
type NodeFaults struct {
	// Seed draws kill rounds and victims; same seed, same schedule.
	Seed uint64
	// Kills is the number of kill/rejoin cycles to attempt. Cycles that do
	// not fit the run length (with healing margins) are dropped.
	Kills int
	// DownRounds is how long each victim stays dead; 0 defaults to one
	// round past lease expiry, so every kill forces a failover.
	DownRounds int
}

// nodeFaultTag namespaces this file's pure draws (see chaos.go's draw-domain
// convention).
const nodeFaultTag = 0x17D0DE

// nodeFaultSchedule derives a deterministic kill schedule: kills land in the
// middle of the run, one node down at a time, and the final rejoin leaves
// lease-expiry-plus-rebalance margin before the run ends so the cluster
// observes healed.
func nodeFaultSchedule(nf NodeFaults, nodes, rounds int) []cluster.NodeFault {
	if nf.Kills <= 0 || nodes < 2 {
		return nil
	}
	down := nf.DownRounds
	if down <= 0 {
		down = cluster.LeaseRounds + 1
	}
	margin := cluster.LeaseRounds + 2
	var out []cluster.NodeFault
	next := 2
	for k := 0; k < nf.Kills; k++ {
		last := rounds - margin - down
		if next > last {
			break
		}
		span := uint64(last - next + 1)
		round := next + int(draw.Mix(nf.Seed, uint64(k), nodeFaultTag)%span)
		victim := int(draw.Mix(nf.Seed, uint64(k), nodeFaultTag+1) % uint64(nodes))
		out = append(out, cluster.NodeFault{Round: round, Node: victim, Down: down})
		next = round + down + 1
	}
	return out
}

// ClusterRun is a pipeline run wrapped in a replication cluster.
type ClusterRun struct {
	*Run
	Cluster *cluster.Cluster
}

// StartCluster builds the universe, pipeline, and cluster for the spec; the
// cluster installs itself as the map's placement.
func StartCluster(spec RunSpec, ccfg cluster.Config) (*ClusterRun, error) {
	r, err := Start(spec)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(r.Map, ccfg)
	if err != nil {
		return nil, err
	}
	return &ClusterRun{Run: r, Cluster: cl}, nil
}

// StepRounds drives n replication rounds of one pipeline tick each.
func (cr *ClusterRun) StepRounds(n int) error {
	for i := 0; i < n; i++ {
		if err := cr.Cluster.Step(func() { cr.Run.Step(1) }); err != nil {
			return err
		}
	}
	return nil
}

// CompleteCluster runs the spec's full duration under the cluster config.
func CompleteCluster(spec RunSpec, ccfg cluster.Config) (*ClusterRun, error) {
	cr, err := StartCluster(spec, ccfg)
	if err != nil {
		return nil, err
	}
	if err := cr.StepRounds(spec.Ticks); err != nil {
		return nil, err
	}
	return cr, nil
}

// ClusterObservation is a cluster run's externally visible state: the
// ingest observation (identical to a serial run's by construction), each
// partition's state on its serving replica, and the digest of every
// placement-routed follower read.
type ClusterObservation struct {
	Ingest         Observation
	ReplicaDigests []string
	ReadDigest     string
	ServingNodes   []string
	Stats          cluster.Stats
}

// ObserveCluster projects a cluster run. The ingest observation is taken
// first, before any digesting reads, mirroring SerialBaseline's order.
func ObserveCluster(cr *ClusterRun) (ClusterObservation, error) {
	ingest, err := Observe(cr.Map)
	if err != nil {
		return ClusterObservation{}, err
	}
	co := ClusterObservation{Ingest: ingest, Stats: cr.Cluster.Stats()}
	for p := 0; p < cr.Cluster.Partitions(); p++ {
		ni, ok := cr.Cluster.Serving(p)
		if !ok {
			return co, fmt.Errorf("chaos: partition %d unserved at observation", p)
		}
		co.ServingNodes = append(co.ServingNodes, cr.Cluster.NodeName(ni))
		co.ReplicaDigests = append(co.ReplicaDigests,
			digestPartition(cr.Cluster.NodeStore(ni).DumpPartition(p)))
	}
	co.ReadDigest, err = readDigest(ingest.Entities, cr.Cluster.Partitions(),
		cr.Cluster.ReaderFor, cr.Clock.Now())
	return co, err
}

// SerialBaseline projects a serial (no-cluster) run into the comparable
// form: its observation plus the digest of the same reads a cluster serves
// through follower replicas, here answered by a reader over the map's own
// journal with the map's own enrichment.
func SerialBaseline(r *Run) (Observation, string, error) {
	obs, err := Observe(r.Map)
	if err != nil {
		return obs, "", err
	}
	reader := r.Map.ReaderOver(r.Map.Journal())
	rd, err := readDigest(obs.Entities, r.Map.Journal().Partitions(),
		func(int) *cqrs.Reader { return reader }, r.Clock.Now())
	return obs, rd, err
}

// readDigest hashes the point-lookup surface: for every journal entity, the
// routed reader's HostAt reconstruction at `now` and its full history.
func readDigest(entities []string, parts int, readerFor func(int) *cqrs.Reader, now time.Time) (string, error) {
	h := sha256.New()
	for _, id := range entities {
		rd := readerFor(shard.Of(id, parts))
		if rd == nil {
			return "", fmt.Errorf("chaos: no reader for entity %s", id)
		}
		h.Write([]byte(id))
		h.Write([]byte{0})
		if host, ok := rd.HostAt(id, now); ok {
			blob, err := json.Marshal(host)
			if err != nil {
				return "", err
			}
			h.Write(blob)
		}
		for _, ev := range rd.History(id) {
			h.Write([]byte(ev.Kind))
			h.Write(ev.Payload)
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ClusterDiff holds a cluster run to the serial baseline: empty means the
// cluster was externally indistinguishable from the serial pipeline — same
// dataset, same journal, same query answers, same follower-read answers,
// and every serving replica's partition state bit-identical to the serial
// journal's.
func ClusterDiff(base Observation, baseRead string, co ClusterObservation) []string {
	out := Diff(base, co.Ingest)
	if len(base.PartitionDigests) != len(co.ReplicaDigests) {
		out = append(out, fmt.Sprintf("partition count: %d vs %d replicas",
			len(base.PartitionDigests), len(co.ReplicaDigests)))
		return out
	}
	for p := range base.PartitionDigests {
		if base.PartitionDigests[p] != co.ReplicaDigests[p] {
			out = append(out, fmt.Sprintf(
				"partition %d: serving replica (%s) diverges from serial journal",
				p, co.ServingNodes[p]))
		}
	}
	if baseRead != co.ReadDigest {
		out = append(out, "follower-read digest mismatch")
	}
	return out
}

// Healed reports whether the cluster has fully converged: every partition
// served, no replica lag.
func Healed(cr *ClusterRun) bool {
	st := cr.Cluster.Stats()
	if st.MaxLagRecords != 0 {
		return false
	}
	for p := 0; p < cr.Cluster.Partitions(); p++ {
		if _, ok := cr.Cluster.Serving(p); !ok {
			return false
		}
	}
	return true
}
