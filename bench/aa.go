package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// runAA is the same-code check a benchmark must pass before its bounds mean
// anything, and the tool a later change uses before it claims a gain: every
// workload runs n times in set A and n times in set B (seeds 1..n in both,
// A and B alternating, each run its own process, as the acceptance driver
// runs them). For every end-to-end metric it prints both sets' medians and
// quartile spreads and how far B's median is from A's, and returns 1 when a
// spread exceeds the metric's bound or the two medians of identical code
// differ, in either direction, by more than half of it: such a metric
// belongs in the per-layer list, not under a bound.
func runAA(n, seconds int, scratch string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	breaches := 0
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for seed := 1; seed <= n; seed++ {
			for k := range sets {
				set := (seed + k) % 2 // alternate which set goes first
				rep, _, err := runOnce(self, w.Name, uint64(seed), seconds, scratch)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.Name, seed, err)
					return 1
				}
				for name, m := range rep.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Printf("\n%s, %d runs per set\n", w.Name, n)
		tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tmedian A\tmedian B\tspread A %\tspread B %\tB worse by %\tbound %\t")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			worse := (mb - ma) / ma
			if d.Better == higher {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := ""
			if max(sa, sb) > d.Bound || math.Abs(worse) > d.Bound/2 {
				verdict = " BREACH"
				breaches++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%.2f\t%.2f\t%.1f\t%s\n", d.Name,
				strconv.FormatFloat(ma, 'g', 6, 64), strconv.FormatFloat(mb, 'g', 6, 64),
				100*sa, 100*sb, 100*worse, 100*d.Bound, verdict)
		}
		tw.Flush()
	}
	if breaches > 0 {
		fmt.Printf("\n%d metric x workload pairs outside their bounds\n", breaches)
		return 1
	}
	fmt.Println("\nevery metric within its bound on every workload")
	return 0
}

// runOnce runs one untraced pass in a child process and returns its result
// line and dataset digest. Output waits for the child to exit.
func runOnce(self, workload string, seed uint64, seconds int, scratch string) (*report, string, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0", "-scratch", scratch)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, "", err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, "", fmt.Errorf("result line: %w", err)
	}
	if !rep.Correct {
		return nil, "", fmt.Errorf("run was not correct: %d of %d failed", rep.Failed, rep.Attempted)
	}
	digest := ""
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, digestPrefix); ok {
			digest = d
		}
	}
	return &rep, digest, nil
}
