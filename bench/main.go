// Command bench is the repository's end-to-end benchmark: one five-phase
// script (set-up, scan, serve, persist, verify) run over four workloads,
// driving the system only through its public entry points. See README.md.
//
//	bench -workload scan_sweep -seed 1 [-seconds 20] [-trace 0|1] [-spans file]
//	bench -aa 6        # same-code A/A check of every metric against its bound
//
// The last line of standard output is one JSON object with the run's
// correctness verdict and metrics: the end-to-end ones with -trace 0, the
// per-layer ones with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// digestPrefix starts the output line that carries the dataset digest.
const digestPrefix = "dataset digest "

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the contract's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: scan_sweep, scan_refresh, serve_live or recover")
		seed    = flag.Uint64("seed", 1, "seed for the request schedule")
		seconds = flag.Int("seconds", nominalSeconds, "length of the timed phases; operation counts scale with it")
		trace   = flag.Int("trace", 0, "1: record spans, run an untraced pass beside it, isolate each layer, print the layer table and the per-layer metrics")
		spans   = flag.String("spans", "", "with -trace 1, file the spans are written to (default <scratch>/spans-<workload>-<seed>.json)")
		scratch = flag.String("scratch", ".bench_build", "directory for saved stores and span files")
		aa      = flag.Int("aa", 0, "run every workload this many times twice over and compare the two sets against the bounds")
	)
	flag.Parse()
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds must be 1..60"))
	}
	if *aa > 0 {
		os.Exit(runAA(*aa, *seconds, *scratch))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	// Two processors, whatever the host has: the numbers are for the
	// declared machine, and a wider host must not change the worker overlap.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	w = w.scaled(*seconds)
	ref := newRefKernel()
	dir := filepath.Join(*scratch, fmt.Sprintf("run-%s-%d-%d", w.Name, *seed, os.Getpid()))

	fmt.Printf("workload %s seed %d: %s\n", w.Name, *seed, w.Why)
	fmt.Printf("in-process ServeHTTP (no sockets), %d closed-loop clients; stores under %s, RecordsPerSegment %d, "+
		"written with rename and never fsynced; GOMAXPROCS %d; REF_NOMINAL %.0f ms\n",
		serveClients, *scratch, recordsPerSegment, runtime.GOMAXPROCS(0), refNominalSec*1e3)

	var tr *tracer
	if *trace != 0 {
		tr = newTracer(fmt.Sprintf("%s-%d", w.Name, *seed), spanCapacity(w))
	}
	// Removed, and the removal written out, before this run ends, so that the
	// next run's saves do not pay for it.
	cleanUp := func() {
		os.RemoveAll(dir)
		syscall.Sync()
	}
	r, err := runWorkload(w, *seed, tr, ref, dir)
	if err != nil {
		cleanUp()
		fatal(err)
	}
	rep := report{Attempted: r.res.Attempted, Failed: r.res.Failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, r.res.E2E

	if tr != nil {
		// The untraced pass runs in a process of its own, so neither pass
		// collects or marks the other's heap.
		self, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		base, digest, err := runOnce(self, w.Name, *seed, *seconds, *scratch)
		if err != nil {
			cleanUp()
			fatal(fmt.Errorf("untraced pass: %w", err))
		}
		untraced := map[string]float64{}
		for name, m := range base.Metrics {
			untraced[name] = m.Value
		}
		L := r.res.Layer
		L["bench.trace_overhead_pct"] = 100 * (timedSeconds(w, r.res.E2E)/timedSeconds(w, untraced) - 1)
		units, err := isolate(r, L)
		if err != nil {
			cleanUp()
			fatal(err)
		}
		rows, unattributed := attribute(r, units)
		L["core.unattributed_pct"] = unattributed
		printLayerTable(os.Stdout, r, rows, unattributed, totals(tr.recorded()))
		path := *spans
		if path == "" {
			path = filepath.Join(*scratch, fmt.Sprintf("spans-%s-%d.json", w.Name, *seed))
		}
		if err := tr.writeFile(path); err != nil {
			fatal(err)
		}
		fmt.Printf("\n%d spans written to %s (%d dropped)\n", len(tr.recorded()), path, tr.dropped.Load())
		rep.Attempted += base.Attempted + 1
		if digest != r.res.Digest {
			r.fail("traced pass produced dataset %s, untraced %s", r.res.Digest, digest)
		}
		rep.Failed = r.res.Failed
		defs, values = perLayer, L
	}

	cleanUp()

	fmt.Printf("\nwall seconds by phase: %s; reference kernel %.1f of them\n", strings.Join(r.res.Wall, ", "), sum(r.refs))
	fmt.Printf("measured: %s\n", strings.Join(r.res.Sizes, "; "))
	fmt.Printf("%s%s\n", digestPrefix, r.res.Digest)
	printMetric := func(d metricDef, v float64) {
		fmt.Printf("%-34s %16s %s\n", d.Name, strconv.FormatFloat(v, 'f', 4, 64), d.Unit)
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			fatal(fmt.Errorf("metric %s was not measured", d.Name))
		}
		printMetric(d, v)
		rep.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if tr == nil {
		fmt.Println("uncorrected, and what this pass saw of the layers (not in the result line):")
		for _, d := range perLayer {
			if v, ok := r.res.Layer[d.Name]; ok {
				printMetric(d, v)
			}
		}
	}
	for _, f := range r.res.Fails {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	rep.Correct = rep.Failed == 0
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// spanCapacity is every span a pass of w can record: ticks, requests, the
// persist operations (three spans per recovery), the phases and chunks.
func spanCapacity(w workload) int {
	return (w.ScanDays+1)*(ticksPerDay+1) + w.Requests + (persistChunks+1)*(3*w.Recovers+4) + serveChunks + 64
}

// timedSeconds adds up the corrected time of a pass's timed phases, for
// comparing a traced pass with an untraced one.
func timedSeconds(w workload, e map[string]float64) float64 {
	return float64(w.ScanDays)/e["simdays_per_s"] + float64(w.Requests)/e["serve_rps"] +
		persistChunks*float64(w.Recovers)*e["recover_ms"]/1e3
}
