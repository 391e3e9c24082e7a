package cluster

import (
	"net/netip"
	"reflect"
	"testing"

	"censysmap/internal/core"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// testMap builds a small quiet /24 pipeline with two journal partitions and
// performs its seed scan. Partition 0's home node is node 0 and partition
// 1's is node 1, so a kill of node 0 moves exactly one lease.
func testMap(t *testing.T) (*core.Map, *simclock.Sim) {
	t.Helper()
	ncfg := simnet.DefaultConfig()
	ncfg.Prefix = netip.MustParsePrefix("10.40.0.0/24")
	ncfg.CloudBlocks = 1
	ncfg.WebProperties = 4
	ncfg.BaseLoss = 0
	ncfg.OutageRate = 0
	ncfg.GeoblockRate = 0
	pcfg := core.DefaultConfig()
	pcfg.CloudBlocks = 1
	pcfg.Shards = 2
	clk := simclock.New()
	m, err := core.New(pcfg, simnet.New(ncfg, clk))
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	return m, clk
}

// step drives one replication round of one pipeline tick.
func step(t *testing.T, c *Cluster, clk *simclock.Sim) {
	t.Helper()
	if err := c.Step(func() { clk.Advance(core.DefaultConfig().Tick) }); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaPlacement(t *testing.T) {
	m, _ := testMap(t)
	for _, nodes := range []int{1, 2, 3, 5} {
		c, err := New(m, Config{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		rf := min(3, nodes)
		for p := 0; p < c.Partitions(); p++ {
			want := make([]int, rf)
			for i := range want {
				want[i] = (p + i) % nodes
			}
			if got := c.replicas(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d nodes: replicas(%d) = %v, want %v", nodes, p, got, want)
			}
			if n, ok := c.Serving(p); !ok || n != p%nodes {
				t.Fatalf("%d nodes: partition %d served by %d (%v), want its home %d", nodes, p, n, ok, p%nodes)
			}
		}
	}
}

// TestLeaseFailoverAndRebalance: a killed home node leaves its partition
// unserved until the lease lapses, the lease then fails over to the first
// caught-up live replica in placement order, and moves back home once the
// node rejoins and catches up.
func TestLeaseFailoverAndRebalance(t *testing.T) {
	m, clk := testMap(t)
	c, err := New(m, Config{Nodes: 3, Faults: []NodeFault{{Round: 3, Node: 0, Down: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		serving               int // -1: unserved
		epoch                 uint64
		failovers, rebalances uint64
	}
	rounds := []want{
		1: {serving: 0, epoch: 1},
		2: {serving: 0, epoch: 1},
		3: {serving: -1, epoch: 1}, // node 0 dies; its lease runs to round 4
		4: {serving: 1, epoch: 2, failovers: 1},
		5: {serving: 1, epoch: 2, failovers: 1},
		6: {serving: 0, epoch: 3, failovers: 1, rebalances: 1}, // rejoin, catch up, rebalance
	}
	for r := 1; r < len(rounds); r++ {
		step(t, c, clk)
		w := rounds[r]
		n, ok := c.Serving(0)
		if !ok {
			n = -1
		}
		rt := c.Route(0)
		st := c.Stats()
		if n != w.serving || c.leases[0].epoch != w.epoch || st.Failovers != w.failovers || st.Rebalances != w.rebalances {
			t.Fatalf("round %d: serving %d epoch %d failovers %d rebalances %d, want %+v",
				r, n, c.leases[0].epoch, st.Failovers, st.Rebalances, w)
		}
		if rt.Unserved != (w.serving < 0) || (w.serving >= 0 && (rt.Degraded || rt.Node != c.NodeName(w.serving))) {
			t.Fatalf("round %d: route %+v, want served by node %d, not degraded", r, rt, w.serving)
		}
		if n, ok := c.Serving(1); !ok || n != 1 || c.Route(1).Degraded {
			t.Fatalf("round %d: partition 1 moved or degraded: node %d (%v), %+v", r, n, ok, c.Route(1))
		}
	}
	if c.Stats().RecordsShipped == 0 {
		t.Fatal("the pipeline journaled nothing to replicate")
	}
	for p := 0; p < c.Partitions(); p++ {
		if lag := len(c.logs[p].records) - c.nodes[0].applied[p]; lag != 0 {
			t.Fatalf("rejoined node lags partition %d by %d records", p, lag)
		}
	}
}

// TestRouteDegradedBelowMajority: a partition whose leader lives but whose
// replica majority does not is served and degraded.
func TestRouteDegradedBelowMajority(t *testing.T) {
	m, clk := testMap(t)
	c, err := New(m, Config{Nodes: 3, Faults: []NodeFault{
		{Round: 2, Node: 1, Down: 2},
		{Round: 2, Node: 2, Down: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	step(t, c, clk)
	if rt := c.Route(0); rt.Degraded || rt.Unserved {
		t.Fatalf("round 1: %+v, want healthy", rt)
	}
	for r := 2; r <= 3; r++ {
		step(t, c, clk)
		if rt := c.Route(0); !rt.Degraded || rt.Unserved || rt.Node != c.NodeName(0) {
			t.Fatalf("round %d: %+v, want node 0 serving degraded with 1 of 3 replicas alive", r, rt)
		}
	}
	step(t, c, clk)
	if rt := c.Route(0); rt.Degraded || rt.Unserved {
		t.Fatalf("round 4: %+v, want healthy after both replicas rejoined", rt)
	}
}
