// Command benchtables regenerates every table and figure of the paper's
// evaluation against the synthetic universe and prints them in the paper's
// layout. Run it with no flags for the full set, or select one:
//
//	benchtables                 # everything (builds one shared lab)
//	benchtables -table 2        # just Table 2
//	benchtables -figure 3       # just Figure 3
//	benchtables -quick          # small universe (seconds instead of minutes)
//	benchtables -predict-diff   # predictive-vs-exhaustive scheduling comparison
//	benchtables -adversarial    # hostile-universe per-engine scorecard
//
// Exit codes: 0 rendered, 1 a lab or replay could not be built, 2 usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"censysmap/internal/engines"
	"censysmap/internal/eval"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// quickLab is the -quick lab configuration; tests swap in a smaller one.
var quickLab = eval.QuickLabConfig

// run is the whole command: it parses args, renders the selected tables and
// figures to stdout and progress to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "render only this table (1-5)")
	figure := fs.Int("figure", 0, "render only this figure (2-5)")
	quick := fs.Bool("quick", false, "use the small/fast lab configuration")
	seed := fs.Uint64("seed", 1, "universe seed")
	predictDiff := fs.Bool("predict-diff", false,
		"replay the predictive-vs-exhaustive scheduling comparison and render its tables")
	adversarial := fs.Bool("adversarial", false,
		"replay the adversarial scenario pack and render the per-engine scorecard")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *adversarial {
		r, err := eval.RunAdversarial(eval.DefaultAdversarialProfile())
		if err != nil {
			fmt.Fprintln(stderr, "adversarial:", err)
			return 1
		}
		fmt.Fprintln(stdout, r.Render())
		return 0
	}

	if *predictDiff {
		for _, p := range eval.DefaultPredictProfiles() {
			r, err := eval.PredictDiff(p)
			if err != nil {
				fmt.Fprintln(stderr, "predict-diff:", err)
				return 1
			}
			fmt.Fprintln(stdout, r.Render())
		}
		return 0
	}

	cfg := eval.DefaultLabConfig()
	if *quick {
		cfg = quickLab()
	}
	cfg.Seed = *seed

	fmt.Fprintf(stderr, "building lab: universe %v, %d-day warmup (simulated)...\n",
		cfg.Prefix, cfg.WarmupDays)
	start := time.Now()
	lab, err := eval.NewLab(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "lab:", err)
		return 1
	}
	fmt.Fprintf(stderr, "lab ready in %v: %d hosts, %d live services, %d in map\n\n",
		time.Since(start).Round(time.Millisecond), lab.Net.Hosts(),
		len(lab.GroundTruth()), len(lab.Censys.Records()))

	want := func(t, f int) bool {
		if *table == 0 && *figure == 0 {
			return true
		}
		return (t != 0 && t == *table) || (f != 0 && f == *figure)
	}

	if want(1, 0) {
		fmt.Fprintln(stdout, eval.Table1(lab).Render())
	}
	if want(2, 0) {
		fmt.Fprintln(stdout, eval.RenderTable2(eval.Table2(lab)))
	}
	if want(3, 0) {
		fmt.Fprintln(stdout, eval.Table3(lab).Render())
	}
	if want(4, 0) {
		fmt.Fprintln(stdout, eval.Table4(lab).Render())
	}
	if want(0, 2) {
		fmt.Fprintln(stdout, eval.Figure2(lab).Render())
	}
	if want(0, 3) {
		fmt.Fprintln(stdout, eval.Figure3(lab).Render())
	}
	if want(0, 4) {
		fmt.Fprintln(stdout, eval.Figure4(lab).Render())
	}
	if want(0, 5) {
		fmt.Fprintln(stdout, eval.Figure5(lab, lab.Engines()[1], 300).Render())
	}
	if want(5, 0) {
		// Table 5 mutates the lab (injects honeypots, advances weeks), so
		// it runs last.
		ttd := eval.DefaultTTDConfig()
		if *quick {
			ttd.Honeypots = 25
			ttd.ObserveFor = 8 * 24 * time.Hour
		}
		fmt.Fprintln(stdout, eval.Table5(lab, ttd, []engines.Engine{lab.Censys, lab.Baselines[0]}).Render())
	}
	return 0
}
