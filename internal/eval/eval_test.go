package eval

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"censysmap/internal/engines"
)

// sharedLab is built once per test process. Experiments read it without
// mutating it, except Table 5, which injects honeypots and advances the lab
// by days: it is the lab's last consumer (the last test of the last file that
// calls lab), and once it has run, lab fails rather than hand out a lab that
// moved.
var (
	sharedLab  *Lab
	labMutated bool
)

func lab(t *testing.T) *Lab {
	t.Helper()
	if labMutated {
		t.Fatal("lab called after Table 5 mutated the shared lab; Table 5 must run last")
	}
	if sharedLab == nil {
		l, err := NewLab(QuickLabConfig())
		if err != nil {
			t.Fatal(err)
		}
		sharedLab = l
	}
	return sharedLab
}

func engineIdx(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

func TestTable1CensysWinsAndGapWidens(t *testing.T) {
	l := lab(t)
	res := Table1(l)
	ci := engineIdx(res.Engines, "censysmap")
	if ci < 0 {
		t.Fatal("censysmap missing")
	}
	// Censys leads every tier.
	for tier := 0; tier < 3; tier++ {
		for e := range res.Engines {
			if e == ci {
				continue
			}
			if res.Coverage[tier][e] > res.Coverage[tier][ci] {
				t.Errorf("tier %d: %s (%.2f) beats censys (%.2f)",
					tier, res.Engines[e], res.Coverage[tier][e], res.Coverage[tier][ci])
			}
		}
	}
	// The gap widens on the 65K tail: baselines' tail coverage collapses
	// relative to their top-10 coverage, censys' does not collapse as hard.
	for e, name := range res.Engines {
		if e == ci || res.Coverage[0][e] == 0 {
			continue
		}
		drop := res.Coverage[2][e] / res.Coverage[0][e]
		censysDrop := res.Coverage[2][ci] / res.Coverage[0][ci]
		if drop > censysDrop {
			t.Errorf("%s retains more tail coverage (%.2f) than censys (%.2f)",
				name, drop, censysDrop)
		}
	}
	if !strings.Contains(res.Render(), "Top 10 Ports") {
		t.Fatal("render broken")
	}
}

func TestTable2AccuracyRanking(t *testing.T) {
	l := lab(t)
	rows := Table2(l)
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Engine] = r
	}
	censys := byName["censysmap"]
	if censys.SelfReported == 0 {
		t.Fatal("censys empty")
	}
	// Censys has the highest accuracy (paper: 92% vs 10-68%).
	for name, r := range byName {
		if name == "censysmap" {
			continue
		}
		if r.PctAccurate >= censys.PctAccurate {
			t.Errorf("%s accuracy %.2f >= censys %.2f", name, r.PctAccurate, censys.PctAccurate)
		}
	}
	if censys.PctAccurate < 0.75 {
		t.Errorf("censys accuracy %.2f below expected range", censys.PctAccurate)
	}
	// Censys dedupes (100% unique); duplicate-keeping engines do not.
	if censys.PctUnique < 0.999 {
		t.Errorf("censys uniqueness %.3f", censys.PctUnique)
	}
	if byName["fofa"].PctUnique > 0.95 {
		t.Errorf("fofa uniqueness %.2f; duplicates expected", byName["fofa"].PctUnique)
	}
	// Censys has the most accurate services despite not the largest
	// self-reported count necessarily.
	for name, r := range byName {
		if name == "censysmap" {
			continue
		}
		if r.NumAccurate >= censys.NumAccurate {
			t.Errorf("%s accurate count %d >= censys %d", name, r.NumAccurate, censys.NumAccurate)
		}
	}
	if !strings.Contains(RenderTable2(rows), "Self-Reported") {
		t.Fatal("render broken")
	}
}

func TestTable2FreshnessAccuracyRankOrderAgree(t *testing.T) {
	// "There is perfect rank-order correlation between accuracy and data
	// freshness of search engines." In the compressed quick lab the
	// baselines' ages cluster within days of each other (the paper's span
	// is hours to years), so the assertable core of the claim is that the
	// freshest engine — censys — is also the most accurate, by a margin.
	l := lab(t)
	rows := Table2(l)
	fresh := Figure2(l)
	medianAge := map[string]float64{}
	for i, e := range fresh.Engines {
		medianAge[e] = fresh.AgesHours[i][4] // p50
	}
	acc := map[string]float64{}
	for _, r := range rows {
		acc[r.Engine] = r.PctAccurate
	}
	for name, age := range medianAge {
		if name == "censysmap" {
			continue
		}
		if age <= medianAge["censysmap"] {
			t.Errorf("%s median age %.0fh <= censys %.0fh", name, age, medianAge["censysmap"])
		}
		if acc[name] >= acc["censysmap"] {
			t.Errorf("%s accuracy %.2f >= censys %.2f despite staler data", name, acc[name], acc["censysmap"])
		}
	}
}

func TestTable3CensysLeadsCategories(t *testing.T) {
	l := lab(t)
	res := Table3(l)
	ci := engineIdx(res.Engines, "censysmap")
	for i, cat := range res.Categories {
		if res.Hosts[i] == 0 {
			continue
		}
		for e, name := range res.Engines {
			if e == ci {
				continue
			}
			if res.Coverage[i][e] > res.Coverage[i][ci]+0.02 {
				t.Errorf("category %s: %s (%.2f) beats censys (%.2f)",
					cat, name, res.Coverage[i][e], res.Coverage[i][ci])
			}
		}
		if res.Coverage[i][ci] < 0.5 {
			t.Errorf("category %s: censys coverage only %.2f", cat, res.Coverage[i][ci])
		}
	}
	if !strings.Contains(res.Render(), "HTTPS") {
		t.Fatal("render broken")
	}
}

func TestTable4KeywordEnginesOverReport(t *testing.T) {
	l := lab(t)
	res := Table4(l)
	// Censys: reported == verified-complete handshakes, so reported counts
	// stay close to accurate counts.
	protosWithData := 0
	for _, proto := range res.Protocols {
		c := res.Cells[proto]["censysmap"]
		if c.Reported > 0 {
			protosWithData++
		}
		// Handshake-verified reporting keeps the gap small; skip
		// protocols with too few instances for a stable ratio.
		if c.Reported >= 4 && float64(c.Accurate) < 0.5*float64(c.Reported) {
			t.Errorf("censys %s: accurate %d << reported %d", proto, c.Accurate, c.Reported)
		}
	}
	if protosWithData < 4 {
		t.Fatalf("censys found only %d ICS protocols", protosWithData)
	}
	// At least one keyword engine massively over-reports at least one
	// protocol (the CODESYS effect).
	found := false
	for _, proto := range res.Protocols {
		for _, eng := range []string{"shodan", "fofa", "zoomeye", "netlas"} {
			c := res.Cells[proto][eng]
			if c.Reported >= 3 && float64(c.Accurate) <= 0.5*float64(c.Reported) {
				found = true
			}
		}
	}
	if !found {
		t.Error("no keyword engine over-reported any ICS protocol")
	}
	if !strings.Contains(res.Render(), "MODBUS") {
		t.Fatal("render broken")
	}
}

func TestFigure2FreshnessOrdering(t *testing.T) {
	l := lab(t)
	res := Figure2(l)
	age := map[string]float64{}
	for i, e := range res.Engines {
		age[e] = res.AgesHours[i][4]
	}
	// Censys data is fresher than every baseline, and dramatically fresher
	// than the monthly-sweep engines.
	for name, a := range age {
		if name == "censysmap" {
			continue
		}
		if a < age["censysmap"] {
			t.Errorf("%s median age %.0fh fresher than censys %.0fh", name, a, age["censysmap"])
		}
	}
	if age["censysmap"] > 48 {
		t.Errorf("censys median age %.0fh; paper: all data within 48h", age["censysmap"])
	}
	if age["zoomeye"] < age["shodan"] {
		t.Errorf("zoomeye (%.0fh) fresher than shodan (%.0fh)", age["zoomeye"], age["shodan"])
	}
}

func TestFigure3CensysGreatestOverlap(t *testing.T) {
	l := lab(t)
	res := Figure3(l)
	ci := engineIdx(res.Engines, "censysmap")
	// Censys covers most of each baseline's live services...
	for b, name := range res.Engines {
		if b == ci {
			continue
		}
		if res.Matrix[ci][b] < 0.5 {
			t.Errorf("censys covers only %.2f of %s", res.Matrix[ci][b], name)
		}
		// ...while every baseline covers censys worst (its 65K tail).
		if res.Matrix[b][ci] > res.Matrix[ci][b] {
			t.Errorf("%s covers censys (%.2f) better than the reverse (%.2f)",
				name, res.Matrix[b][ci], res.Matrix[ci][b])
		}
	}
	if res.Matrix[ci][ci] != 1.0 {
		t.Error("self-overlap != 1")
	}
}

func TestFigure4SmoothDecay(t *testing.T) {
	l := lab(t)
	res := Figure4(l)
	if res.DistinctPorts < 100 {
		t.Fatalf("only %d distinct ports; no tail", res.DistinctPorts)
	}
	// Counts are non-increasing by construction; the key shape property is
	// a heavy tail: the top-10 ports must NOT account for the vast
	// majority of services.
	top10 := 0
	for i := 0; i < 10 && i < len(res.Counts); i++ {
		top10 += res.Counts[i]
	}
	share := float64(top10) / float64(res.TotalServices)
	if share > 0.6 {
		t.Errorf("top-10 ports hold %.2f of services; tail missing", share)
	}
	if share < 0.05 {
		t.Errorf("top-10 ports hold only %.2f; head missing", share)
	}
	// No cliff: the ratio between successive head ranks stays bounded.
	for i := 1; i < 8 && i < len(res.Counts); i++ {
		if res.Counts[i] > 0 && res.Counts[i-1]/res.Counts[i] > 20 {
			t.Errorf("cliff between rank %d (%d) and %d (%d)",
				i, res.Counts[i-1], i+1, res.Counts[i])
		}
	}
}

func TestFigure5ConvergesByFifty(t *testing.T) {
	l := lab(t)
	res := Figure5(l, l.Engines()[1], 200) // shodan-like
	if len(res.Mean) != len(res.SampleSizes) {
		t.Fatal("missing series")
	}
	// Standard deviation decreases with sample size and is small by n=50.
	idx50 := -1
	for i, n := range res.SampleSizes {
		if n == 50 {
			idx50 = i
		}
	}
	if res.StdDev[0] <= res.StdDev[len(res.StdDev)-1] {
		t.Errorf("stddev did not shrink: %.3f -> %.3f", res.StdDev[0], res.StdDev[len(res.StdDev)-1])
	}
	if res.StdDev[idx50] > 0.1 {
		t.Errorf("stddev at n=50 is %.3f; paper: 50 samples suffice", res.StdDev[idx50])
	}
	// Estimates are unbiased.
	for i, m := range res.Mean {
		if m < res.TrueValue-0.15 || m > res.TrueValue+0.15 {
			t.Errorf("n=%d estimate %.3f far from truth %.3f", res.SampleSizes[i], m, res.TrueValue)
		}
	}
}

// TestFigure5Deterministic: Figure 5's seeded sampler draws from a list in a
// fixed order, so two calls on one lab agree exactly.
func TestFigure5Deterministic(t *testing.T) {
	l := lab(t)
	a := Figure5(l, l.Engines()[1], 50)
	b := Figure5(l, l.Engines()[1], 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two calls differ:\n%+v\n%+v", a, b)
	}
}

func TestTable5CensysFasterThanShodan(t *testing.T) {
	// TTD mutates the lab (injects honeypots, advances days), so it runs on
	// the shared lab last.
	l := lab(t)
	labMutated = true
	cfg := TTDConfig{Honeypots: 25, StaggerEvery: 8 * time.Hour, ObserveFor: 8 * 24 * time.Hour}
	res := Table5(l, cfg, []engines.Engine{l.Censys, l.Baselines[0]})
	if res.OverallMean["censysmap"] <= 0 {
		t.Fatal("censys discovered nothing")
	}
	if res.OverallMean["shodan"] <= 0 {
		t.Fatal("shodan discovered nothing")
	}
	if res.OverallMean["censysmap"] >= res.OverallMean["shodan"] {
		t.Errorf("censys mean TTD %.1fh >= shodan %.1fh",
			res.OverallMean["censysmap"], res.OverallMean["shodan"])
	}
	// Shodan's fixed port list misses the honeypot ports outside it.
	for _, row := range res.Rows {
		if row.Port == 60000 || row.Port == 500 {
			if row.Discovered["shodan"] > 0 {
				t.Errorf("shodan found port %d outside its port list", row.Port)
			}
			if row.Discovered["censysmap"] == 0 {
				t.Errorf("censys never found honeypot port %d", row.Port)
			}
		}
	}
	if !strings.Contains(res.Render(), "80/HTTP") {
		t.Fatal("render broken")
	}
}
