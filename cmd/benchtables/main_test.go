package main

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"

	"censysmap/internal/eval"
)

// TestQuickTable1 renders one table off the -quick lab, shrunk to a /24
// warmed up for one simulated day (the tables' shapes are internal/eval's to
// test): the selected table goes to stdout alone, progress to stderr.
func TestQuickTable1(t *testing.T) {
	defer func(orig func() eval.LabConfig) { quickLab = orig }(quickLab)
	quickLab = func() eval.LabConfig {
		cfg := eval.QuickLabConfig()
		cfg.Prefix = netip.MustParsePrefix("10.0.0.0/24")
		cfg.WarmupDays = 1
		return cfg
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-quick", "-table", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "Table 1:") || !strings.Contains(out.String(), "censysmap") ||
		strings.Contains(out.String(), "Table 2") || strings.Contains(out.String(), "Figure") {
		t.Fatalf("stdout is not Table 1 alone:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "lab ready in ") {
		t.Fatalf("stderr has no progress line:\n%s", errb.String())
	}
}

func TestBadFlagIsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 || out.Len() != 0 || errb.Len() == 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 2, nothing, a message", code, out.String(), errb.String())
	}
}
