package chaos

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"testing"

	"censysmap/internal/cluster"
	"censysmap/internal/lookup"
	"censysmap/internal/shard"
	"censysmap/internal/simnet"
	"censysmap/internal/telemetry"
)

// clusterSpec is the Lab universe used by every cluster test: quiet
// network, 6 journal partitions, 30 ticks (crossing a day boundary).
func clusterSpec(seed uint64, ticks int) RunSpec {
	spec := Lab(seed, simnet.AdversaryConfig{}, ticks)
	spec.Pipeline.Shards = 6
	return spec
}

// TestClusterDifferential: for every node count and chaos seed, a cluster
// run — node kills, lease failovers, rejoin catch-up and all — must be
// externally indistinguishable from the serial run: identical dataset,
// journal, query answers, follower-read answers, and per-partition replica
// state on the serving nodes. The last seed runs the hostile substrate, whose
// honeypot farm gets flagged: its hosts leave follower reads too, because
// their retirement is replicated like any other removal.
func TestClusterDifferential(t *testing.T) {
	const ticks = 30
	const hostile = 401
	spec := func(seed uint64) RunSpec {
		if seed != hostile {
			return clusterSpec(seed, ticks)
		}
		s := adversarialSpec(seed, ticks)
		s.Pipeline.Shards = 6
		return s
	}
	for _, seed := range []uint64{31, 87, hostile} {
		serial, err := Complete(spec(seed))
		if err != nil {
			t.Fatal(err)
		}
		base, baseRead, err := SerialBaseline(serial)
		if err != nil {
			t.Fatal(err)
		}
		serial.Map.Stop()

		for _, nodes := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("seed=%d/nodes=%d", seed, nodes), func(t *testing.T) {
				faults := nodeFaultSchedule(NodeFaults{Seed: seed*3 + 1, Kills: 2, DownRounds: 3},
					nodes, ticks)
				ccfg := cluster.Config{Nodes: nodes, Faults: faults}
				cr, err := CompleteCluster(spec(seed), ccfg)
				if err != nil {
					t.Fatal(err)
				}
				defer cr.Map.Stop()
				if !Healed(cr) {
					t.Fatal("cluster not healed at observation")
				}
				co, err := ObserveCluster(cr)
				if err != nil {
					t.Fatal(err)
				}
				if diffs := ClusterDiff(base, baseRead, co); len(diffs) != 0 {
					t.Fatalf("cluster diverged from serial run:\n%v", diffs)
				}
				if seed == hostile && len(cr.Map.HoneypotHosts()) == 0 {
					t.Fatal("no honeypot flagged; the follower-read case is vacuous")
				}
				if leaks := flaggedFollowerReads(cr); len(leaks) != 0 {
					t.Fatalf("%d flagged hosts on follower reads, first: %s", len(leaks), leaks[0])
				}
				st := co.Stats
				if st.RecordsShipped == 0 || st.BytesShipped == 0 {
					t.Fatalf("replication did not move data: %+v", st)
				}
				if nodes > 1 {
					if len(faults) == 0 {
						t.Fatal("fault schedule empty; the differential proved nothing about kills")
					}
					if st.Failovers == 0 {
						t.Fatalf("kills scheduled (%v) but no failovers", faults)
					}
					if st.Rebalances == 0 {
						t.Fatal("rejoined homes never took their leases back")
					}
					if st.CatchupShips == 0 {
						t.Fatal("no catch-up ships despite rejoins")
					}
				}
				if st.MaxLagRecords != 0 {
					t.Fatalf("replica lag %d at end of run", st.MaxLagRecords)
				}
			})
		}
	}
}

// flaggedFollowerReads holds follower reads to the single-owner rule: a host
// the honeypot filter took out of the dataset had its services retired through
// the journal, so the replica serving its partition — which has never heard of
// the flagged set — reconstructs it with no service. It returns one line per
// flagged host a placement-routed read still serves.
func flaggedFollowerReads(cr *ClusterRun) []string {
	var out []string
	for _, addr := range cr.Map.HoneypotHosts() {
		id := addr.String()
		rd := cr.Cluster.ReaderFor(shard.Of(id, cr.Cluster.Partitions()))
		if rd == nil {
			out = append(out, fmt.Sprintf("flagged host %s: partition unserved", id))
		} else if h, ok := rd.HostAt(id, cr.Clock.Now()); ok && len(h.Services) > 0 {
			out = append(out, fmt.Sprintf("flagged host %s: follower read serves %d services", id, len(h.Services)))
		}
	}
	return out
}

// TestClusterDegradedSurface: a 2-node cluster losing a node walks through
// the full availability arc — unserved (503) while the dead node's leases
// hold, degraded-but-served after failover, healthy after rejoin and
// rebalance — all visible in the HTTP headers and status codes.
func TestClusterDegradedSurface(t *testing.T) {
	const killRound, downRounds = 8, 4
	spec := clusterSpec(55, 16)
	spec.Pipeline.Telemetry = telemetry.New()
	cr, err := StartCluster(spec, cluster.Config{
		Nodes:     2,
		Telemetry: spec.Pipeline.Telemetry,
		Faults:    []cluster.NodeFault{{Round: killRound, Node: 1, Down: downRounds}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Map.Stop()
	parts := cr.Cluster.Partitions()

	if err := cr.StepRounds(killRound - 1); err != nil {
		t.Fatal(err)
	}
	// Find a live host homed on node 1 (odd partition).
	var victimIP string
	for _, id := range cr.Map.Journal().Entities() {
		if _, perr := netip.ParseAddr(id); perr != nil {
			continue
		}
		if shard.Of(id, parts)%2 == 1 {
			victimIP = id
			break
		}
	}
	if victimIP == "" {
		t.Fatal("no host in a node-1 partition")
	}
	h := cr.Map.Lookup()
	get := func(u string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		return rec
	}

	// Healthy: served by the home node, no degraded header.
	rec := get("/v2/hosts/" + victimIP)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy lookup: %d body=%s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(lookup.ServingNodeHeader); got != "node-1" {
		t.Fatalf("healthy serving node = %q, want node-1", got)
	}
	if got := rec.Header().Get(lookup.DegradedHeader); got != "" {
		t.Fatalf("healthy run has degraded header %q", got)
	}

	// Kill round: node 1's leases still hold, so its partitions are
	// unserved — honest 503, not a stale answer — and fan-out queries
	// refuse whole.
	if err := cr.StepRounds(1); err != nil {
		t.Fatal(err)
	}
	if rec = get("/v2/hosts/" + victimIP); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unserved lookup: %d, want 503", rec.Code)
	}
	if rec = get("/v2/hosts/search?q=services.port:%20443"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("search with unserved partitions: %d, want 503", rec.Code)
	}
	if got := rec.Header().Get(lookup.DegradedHeader); got == "" {
		t.Fatal("unserved-window response missing degraded header")
	}
	if rec = get("/v2/metrics"); rec.Code != http.StatusOK {
		t.Fatalf("/v2/metrics during outage: %d, want 200", rec.Code)
	}

	// After lease expiry the survivor takes over: served again, flagged
	// degraded (below replica quorum).
	if err := cr.StepRounds(2); err != nil {
		t.Fatal(err)
	}
	if rec = get("/v2/hosts/" + victimIP); rec.Code != http.StatusOK {
		t.Fatalf("failed-over lookup: %d body=%s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(lookup.ServingNodeHeader); got != "node-0" {
		t.Fatalf("failed-over serving node = %q, want node-0", got)
	}
	if got := rec.Header().Get(lookup.DegradedHeader); got == "" {
		t.Fatal("failed-over response missing degraded-quorum header")
	}

	// Rejoin, catch-up, rebalance: back to the home node, headers clean.
	if err := cr.StepRounds(spec.Ticks - (killRound + 2)); err != nil {
		t.Fatal(err)
	}
	if rec = get("/v2/hosts/" + victimIP); rec.Code != http.StatusOK {
		t.Fatalf("healed lookup: %d", rec.Code)
	}
	if got := rec.Header().Get(lookup.ServingNodeHeader); got != "node-1" {
		t.Fatalf("healed serving node = %q, want node-1 (rebalanced)", got)
	}
	if got := rec.Header().Get(lookup.DegradedHeader); got != "" {
		t.Fatalf("healed response still degraded: %q", got)
	}
	st := cr.Cluster.Stats()
	if st.Failovers == 0 || st.Rebalances == 0 {
		t.Fatalf("expected failover and rebalance, got %+v", st)
	}
}

// TestClusterTelemetryDeterministic: two identical cluster runs — node
// kills included — produce byte-identical metric snapshots, and the
// cluster/replication families land in the same registry as the pipeline's.
func TestClusterTelemetryDeterministic(t *testing.T) {
	run := func() (string, telemetry.Snapshot) {
		spec := clusterSpec(77, 24)
		spec.Pipeline.Telemetry = telemetry.New()
		ccfg := cluster.Config{Nodes: 3,
			Telemetry: spec.Pipeline.Telemetry,
			Faults:    []cluster.NodeFault{{Round: 6, Node: 2, Down: 3}}}
		cr, err := CompleteCluster(spec, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cr.Map.Stop()
		snap := cr.Map.MetricsSnapshot()
		text := snap.PrometheusText()
		j, err := snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return text + "\n" + string(j), snap
	}
	a, snap := run()
	b, _ := run()
	if a != b {
		t.Fatal("same spec, same cluster: metric snapshots differ")
	}
	if v := snap.Total("censys_replication_records_shipped_total"); v == 0 {
		t.Error("no replication records counted")
	}
	if v := snap.Total("censys_cluster_failovers_total"); v == 0 {
		t.Error("no failovers counted despite a scheduled kill")
	}
	if g, ok := snap.Get("censys_cluster_nodes", nil); !ok || g.Value != 3 {
		t.Errorf("censys_cluster_nodes = %v (present %v), want 3", g.Value, ok)
	}
	if g, ok := snap.Get("censys_cluster_nodes_alive", nil); !ok || g.Value != 3 {
		t.Errorf("censys_cluster_nodes_alive = %v (present %v), want 3 at end", g.Value, ok)
	}
	if g, ok := snap.Get("censys_replication_max_lag_records", nil); !ok || g.Value != 0 {
		t.Errorf("end-state replication lag = %v (present %v), want 0", g.Value, ok)
	}
	if v := snap.Total("censys_cluster_rpc_total"); v == 0 {
		t.Error("no cluster RPCs counted")
	}
}

// TestNodeFaultSchedule: derived schedules are deterministic, in-range,
// serialized (one node down at a time), and leave healing margin.
func TestNodeFaultSchedule(t *testing.T) {
	a := nodeFaultSchedule(NodeFaults{Seed: 9, Kills: 3, DownRounds: 3}, 5, 40)
	b := nodeFaultSchedule(NodeFaults{Seed: 9, Kills: 3, DownRounds: 3}, 5, 40)
	if len(a) == 0 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("schedule not deterministic: %v vs %v", a, b)
	}
	prevEnd := 0
	for _, f := range a {
		if f.Node < 0 || f.Node >= 5 {
			t.Fatalf("victim out of range: %+v", f)
		}
		if f.Round <= prevEnd {
			t.Fatalf("overlapping downtime: %v", a)
		}
		if f.Round+f.Down > 40-(cluster.LeaseRounds+2) {
			t.Fatalf("fault %+v leaves no healing margin", f)
		}
		prevEnd = f.Round + f.Down
	}
	if s := nodeFaultSchedule(NodeFaults{Seed: 9, Kills: 2}, 1, 40); s != nil {
		t.Fatal("single-node cluster must get no fault schedule")
	}
}
