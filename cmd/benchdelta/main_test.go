package main

import "testing"

func fp(v float64) *float64 { return &v }

func TestCompareFlagsRegressions(t *testing.T) {
	old := benchDoc{Results: []benchResult{
		{Name: "a/fast", NsPerOp: 1000, AllocsPerOp: fp(10)},
		{Name: "b/zero", NsPerOp: 500, AllocsPerOp: fp(0)},
		{Name: "c/slow", NsPerOp: 2000, AllocsPerOp: fp(4)},
		{Name: "d/gone", NsPerOp: 100},
		{Name: "e/untimed", NsPerOp: 0, Metrics: map[string]float64{"qps": 9}},
	}}
	new := benchDoc{Results: []benchResult{
		{Name: "a/fast", NsPerOp: 1100, AllocsPerOp: fp(10)}, // +10%: within 15%
		{Name: "b/zero", NsPerOp: 510, AllocsPerOp: fp(1)},   // 0 -> 1 alloc: regression
		{Name: "c/slow", NsPerOp: 2400, AllocsPerOp: fp(4)},  // +20% ns: regression
		{Name: "e/untimed", NsPerOp: 0},                      // no timing on either side
		{Name: "f/new", NsPerOp: 50},
	}}
	byName := map[string]delta{}
	for _, d := range compare(old, new, 0.15) {
		byName[d.Name] = d
	}
	if len(byName) != 6 {
		t.Fatalf("got %d rows, want 6", len(byName))
	}
	if d := byName["a/fast"]; d.NsRegressed || d.AllocsRegressed {
		t.Fatalf("a/fast flagged: %+v", d)
	}
	if d := byName["b/zero"]; !d.AllocsRegressed {
		t.Fatal("b/zero: 0 -> 1 allocs must regress")
	} else if d.NsRegressed {
		t.Fatal("b/zero: +2% ns must not regress")
	}
	if d := byName["c/slow"]; !d.NsRegressed {
		t.Fatal("c/slow: +20% ns must regress")
	}
	if d := byName["d/gone"]; !d.OnlyOld {
		t.Fatal("d/gone must be OnlyOld")
	}
	if d := byName["e/untimed"]; d.NsRegressed {
		t.Fatal("untimed rows must not regress on ns")
	}
	if d := byName["f/new"]; !d.OnlyNew {
		t.Fatal("f/new must be OnlyNew")
	}
}

func TestRegressedZeroBaseline(t *testing.T) {
	if regressed(0, 0, 0.15) {
		t.Fatal("0 -> 0 is not a regression")
	}
	if !regressed(0, 0.01, 0.15) {
		t.Fatal("0 -> 0.01 is a regression")
	}
	if regressed(100, 114, 0.15) {
		t.Fatal("within threshold is not a regression")
	}
	if !regressed(100, 116, 0.15) {
		t.Fatal("beyond threshold is a regression")
	}
}
