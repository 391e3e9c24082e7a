package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fixture copies testdata/mod, a module with one function for each case the
// lint classifies, into a fresh directory and replaces its allowlist.
func fixture(t *testing.T, allow string) string {
	t.Helper()
	root := t.TempDir()
	if err := os.CopyFS(root, os.DirFS(filepath.Join("testdata", "mod"))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "lintreach.allow"), []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func names(ds []decl) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.name)
	}
	return out
}

// TestFixtureClassification: on the fixture, exactly the one function
// nothing calls is reported. A function reached only through a generic
// instantiation (a struct shape, whose name has spaces), a generic-receiver
// method, a closure, an interface call, the root package's exported API or
// an allowlisted function is not; the bench-only function is listed apart.
func TestFixtureClassification(t *testing.T) {
	rep, err := lint(fixture(t, "lib.Checker  # checker the tests call\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := names(rep.unreached); !slices.Equal(got, []string{"lib.Unreached"}) {
		t.Errorf("unreached = %q, want [lib.Unreached]", got)
	}
	if got := names(rep.benchOnly); !slices.Equal(got, []string{"lib.BenchOnly"}) {
		t.Errorf("bench-only = %q, want [lib.BenchOnly]", got)
	}
	if len(rep.allowErrs) != 0 {
		t.Errorf("allowlist errors on a clean allowlist: %q", rep.allowErrs)
	}
}

// TestAllowlistEntries: an entry for a function a binary links, or one that
// names nothing, fails the lint; an entry without a reason cannot be read.
func TestAllowlistEntries(t *testing.T) {
	for name, c := range map[string]struct {
		allow string
		code  int
		want  string
	}{
		"covers the unreached": {"lib.Unreached  # kept\nlib.Checker  # checker\n", 0, ""},
		"glob":                 {"lib.*eached  # kept\nlib.Checker  # checker\n", 1, "lib.Reached is linked by fix/cmd/app"},
		"linked by a binary":   {"lib.Reached  # stale\n", 1, "lintreach.allow: lib.Reached is linked by fix/cmd/app"},
		"names nothing":        {"lib.Unreached  # kept\nlib.Gone  # deleted\n", 1, `lintreach.allow: "lib.Gone" names no function`},
		"no reason":            {"lib.Unreached\n", 2, "want `pattern  # reason`"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{fixture(t, c.allow)}, &stdout, &stderr)
		if code != c.code || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%s: exit %d, want %d; stderr %q, want it to contain %q", name, code, c.code, stderr.String(), c.want)
		}
		if code != 2 && !strings.Contains(stdout.String(), "bench-only: lib.BenchOnly") {
			t.Errorf("%s: stdout %q does not list the bench-only function", name, stdout.String())
		}
	}
}

// TestSymbolNames: nm lines are read whole, so a generic shape's spaces and
// brackets do not split the name, and only code symbols count.
func TestSymbolNames(t *testing.T) {
	for line, want := range map[string]string{
		"  6cf380 T m/p.head[go.shape.struct { m/p.port uint16; m/p.count int }]": "m/p.head",
		"  68afa0 T m/p.(*children[go.shape.struct { b []float64 }]).get":         "m/p.(*children).get",
		"  6de340 T m/p.(*Map).Current.func1":                                     "m/p.(*Map).Current.func1",
		"  6aa260 t m/p.set[go.shape.string]":                                     "m/p.set",
		"  4010e0 T m/p.tag[go.shape.struct { A int \"json:\\\"a]\\\"\" }]":       "m/p.tag",
		"  84bbd0 R m/p..dict.head[m/p.portCount]":                                "",
		"         U abort": "",
	} {
		if got, _ := codeSymbol(line); got != want {
			t.Errorf("%q: got %q, want %q", line, got, want)
		}
	}
}
