package main

import (
	"bytes"
	"strings"
	"testing"
)

// small keeps a run to a /24 mapped for one simulated day.
var small = []string{"-universe", "10.0.0.0/24", "-days", "1"}

func censysql(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestGoodQuery(t *testing.T) {
	code, out, errb := censysql(t, "", append(small, "services.port: 80")...)
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, errb)
	}
	if !strings.HasPrefix(out, "> services.port: 80\n") || !strings.Contains(out, " hosts\n") {
		t.Fatalf("stdout has no query block:\n%s", out)
	}
}

// TestBadQueryExitsNonZero: a query that fails to parse is reported on stderr
// and makes the exit code 1, and the queries around it still run.
func TestBadQueryExitsNonZero(t *testing.T) {
	code, out, errb := censysql(t, "", append(small, "services.port: 80", "services.port: [", "labels: ics")...)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, errb)
	}
	if !strings.Contains(errb, `query "services.port: [": `) {
		t.Fatalf("stderr does not name the failed query:\n%s", errb)
	}
	if strings.Contains(out, "services.port: [") ||
		!strings.Contains(out, "> services.port: 80\n") || !strings.Contains(out, "> labels: ics\n") {
		t.Fatalf("stdout should hold exactly the two good query blocks:\n%s", out)
	}
}

func TestNoQueryIsUsage(t *testing.T) {
	for name, c := range map[string]struct {
		stdin string
		args  []string
	}{
		"no arguments": {"", nil},
		"empty stdin":  {"\n  \n", []string{"-"}},
		"bad flag":     {"", []string{"-no-such-flag", "q"}},
		"bad universe": {"", []string{"-universe", "banana", "q"}},
	} {
		if code, out, errb := censysql(t, c.stdin, c.args...); code != 2 || out != "" || errb == "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 2, nothing, a message", name, code, out, errb)
		}
	}
}

func TestDashReadsStdin(t *testing.T) {
	code, out, errb := censysql(t, "services.port: 80\n\n  services.tls: true  \n", append(small, "-")...)
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, errb)
	}
	if !strings.Contains(out, "> services.port: 80\n") || !strings.Contains(out, "> services.tls: true\n") {
		t.Fatalf("stdout lacks a block per stdin line:\n%s", out)
	}
}
