// Command censysd runs the full pipeline against a synthetic Internet and
// serves the lookup REST API:
//
//	censysd -universe 10.0.0.0/20 -days 3 -listen :8181
//
// It fast-forwards the simulated clock through the warmup, then keeps
// advancing simulated time in the background (1 simulated minute per real
// second by default) while serving queries:
//
//	curl localhost:8181/v2/hosts/10.0.1.7
//	curl localhost:8181/v2/hosts/10.0.1.7/history
//	curl localhost:8181/v2/certificates/<sha256>/hosts
//
// The /v2 surface is fronted by the serving tier: per-tenant API keys
// (-api-keys name:key:tier), token-bucket rate limits and daily quotas per
// tier, priority-aware load shedding (-capacity), snapshot-pinned bulk
// export under /v2/export/hosts, and ETag conditional GETs. Unauthenticated
// requests are served under -anonymous-tier (default free); set it empty to
// require a key.
//
// With -scenario the synthetic Internet turns hostile: a named preset
// (honeyfarm, tarpit, detector, churn, full) or key=value pairs
// (honeypot_farms=2,tarpit_rate=0.1) overlay honeypot farms, tarpits, scan
// detectors, and banner churn on the universe, and the pipeline's
// countermeasures (deadline budgets, adaptive backoff, honeypot uniformity
// detection) default on.
//
// With -cluster-nodes N the process simulates an N-node serving cluster:
// journal partitions replicate to per-node replica journals, point lookups
// route to the partition's lease holder (X-Censys-Serving-Node names it),
// and quorum health surfaces in X-Censys-Degraded. -node-id picks which
// node this process front-ends for identification in logs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"censysmap"
	"censysmap/internal/cluster"
	"censysmap/internal/core"
	"censysmap/internal/serve"
	"censysmap/internal/simnet"
)

// parseTenants parses the -api-keys flag: comma-separated name:key:tier
// entries, e.g. "alice:s3cret:standard,bench:hunter2:internal".
func parseTenants(raw string) ([]serve.Tenant, error) {
	if raw == "" {
		return nil, nil
	}
	var out []serve.Tenant
	for _, entry := range strings.Split(raw, ",") {
		parts := strings.Split(entry, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad -api-keys entry %q (want name:key:tier)", entry)
		}
		out = append(out, serve.Tenant{Name: parts[0], Key: parts[1], Tier: parts[2]})
	}
	return out, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, warms the map up, serves until
// ctx is cancelled, and returns the exit code (0 clean shutdown, 1 runtime
// failure, 2 usage).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("censysd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	universe := fs.String("universe", "10.0.0.0/20", "IPv4 universe prefix")
	days := fs.Int("days", 2, "simulated days to warm up before serving")
	listen := fs.String("listen", ":8181", "REST API listen address")
	seed := fs.Uint64("seed", 1, "universe seed")
	rate := fs.Duration("rate", time.Minute, "simulated time advanced per real second")
	clusterNodes := fs.Int("cluster-nodes", 0, "simulate an N-node serving cluster (0 = single-process)")
	nodeID := fs.Int("node-id", 0, "node this process identifies as (requires -cluster-nodes)")
	apiKeys := fs.String("api-keys", "",
		"serving-tier tenants, comma-separated name:key:tier (tiers: free, standard, enterprise, internal)")
	anonTier := fs.String("anonymous-tier", "free",
		"tier unauthenticated requests are served under; empty requires an API key (401)")
	capacity := fs.Int("capacity", 64,
		"max concurrently admitted requests; load shedding starts at half this")
	pprofAddr := fs.String("pprof", "",
		"side listener exposing net/http/pprof (e.g. localhost:6060); empty disables")
	predict := fs.Bool("predict", true,
		"GPS-style predictive scanning: seed scan, cross-port model, predicted targets")
	predictBudget := fs.Int("predict-budget", 0,
		"predictive probes per scheduling tick (0 = pipeline default; requires -predict)")
	scenario := fs.String("scenario", "",
		"hostile network: a preset ("+strings.Join(simnet.ScenarioNames(), ", ")+
			"), key=value pairs like honeypot_farms=2,fault_loss=0.05, or a preset then pairs like severe,seed=7 (empty = benign)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	prefix, err := netip.ParsePrefix(*universe)
	if err != nil {
		fmt.Fprintln(stderr, "bad -universe:", err)
		return 2
	}
	tenants, err := parseTenants(*apiKeys)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	usage := ""
	switch {
	case *days < 0:
		usage = "bad -days: negative"
	case *rate < 0:
		usage = "bad -rate: negative"
	case *clusterNodes < 0:
		usage = "bad -cluster-nodes: negative"
	case set["node-id"] && *clusterNodes == 0:
		usage = "bad -node-id: requires -cluster-nodes"
	case *clusterNodes > 0 && (*nodeID < 0 || *nodeID >= *clusterNodes):
		usage = fmt.Sprintf("bad -node-id: %d outside 0..%d", *nodeID, *clusterNodes-1)
	case *predictBudget < 0:
		usage = "bad -predict-budget: negative"
	case set["predict-budget"] && !*predict:
		usage = "bad -predict-budget: requires -predict"
	}
	if usage != "" {
		fmt.Fprintln(stderr, usage)
		return 2
	}

	// The profiler gets its own listener and mux so /debug/pprof/ never
	// shares a port with the public API surface (it bypasses the serving
	// tier's auth and admission control by design — bind it to localhost).
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				fmt.Fprintln(stderr, "pprof listener:", err)
			}
		}()
		fmt.Fprintf(stdout, "pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	// The default pipeline's CloudBlocks is the default universe's.
	pipeline := core.DefaultConfig()
	pipeline.DisablePrediction = !*predict
	if *predictBudget > 0 {
		pipeline.PredictBudgetPerTick = *predictBudget
	}
	sys, err := censysmap.NewSystem(censysmap.Options{Universe: prefix, Seed: *seed,
		Pipeline: &pipeline, Scenario: *scenario})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *scenario != "" {
		st := sys.Internet().AdversaryStats()
		fmt.Fprintf(stdout, "scenario %q: %d farms (%d honeypots), %d tarpits (%d drip), %d detector /24s, %d churn hosts\n",
			*scenario, st.Farms, st.HoneypotHosts, st.TarpitHosts, st.DripTarpits,
			st.DetectorNets, st.ChurnHosts)
	}

	var cl *cluster.Cluster
	if *clusterNodes > 0 {
		cl, err = cluster.New(sys.Map(), cluster.Config{
			Nodes:     *clusterNodes,
			Telemetry: sys.Metrics(),
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	// advance moves simulated time, driving a replication round around each
	// advance when clustered.
	advance := func(d time.Duration) error {
		if cl == nil {
			sys.Run(d)
			return nil
		}
		return cl.Step(func() { sys.Run(d) })
	}

	fmt.Fprintf(stdout, "universe %v: %d hosts; warming up %d simulated days...\n",
		prefix, sys.Internet().Hosts(), *days)
	start := time.Now()
	if err := advance(time.Duration(*days) * 24 * time.Hour); err != nil {
		fmt.Fprintln(stderr, "replication:", err)
		return 1
	}
	fmt.Fprintf(stdout, "warmup done in %v: %d services mapped, %d web properties, sim time %v\n",
		time.Since(start).Round(time.Millisecond), len(sys.Services()),
		len(sys.WebProperties()), sys.Now().Format(time.RFC3339))
	if cl != nil {
		st := cl.Stats()
		fmt.Fprintf(stdout, "cluster: %d nodes, serving as %s; %d partitions replicated, %d records shipped\n",
			cl.Nodes(), cl.NodeName(*nodeID), cl.Partitions(), st.RecordsShipped)
	}

	front, err := sys.Frontend(serve.Config{
		Tenants:       tenants,
		AnonymousTier: *anonTier,
		Capacity:      *capacity,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	mux := http.NewServeMux()
	mux.Handle("/v2/", front)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "serving on %s\n", ln.Addr())
	srv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	// Keep simulated time flowing while serving. Queries route through the
	// placement on every request, so each advance's replication round is
	// immediately visible.
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			err = advance(*rate)
		case err = <-served:
		case <-ctx.Done():
			err = srv.Shutdown(context.Background())
			if err == nil {
				return 0
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
}
