package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tree writes files (path → source) under a fresh directory and returns it.
func tree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const callsNow = "package x\n\nimport \"time\"\n\nvar T = time.Now()\n"

func TestExemptionsAndViolations(t *testing.T) {
	for name, c := range map[string]struct {
		files map[string]string
		code  int
		want  string // substring of stderr; "" means stderr must be empty
	}{
		"clean tree": {map[string]string{
			"internal/x/x.go": "package x\n\nimport \"time\"\n\nvar D = time.Second\n"}, 0, ""},
		"exempt places": {map[string]string{
			"internal/simclock/simclock.go": callsNow,
			"internal/x/x_test.go":          callsNow,
			"cmd/censysd/main.go":           callsNow}, 0, ""},
		"pipeline code": {map[string]string{
			"internal/x/x.go": callsNow}, 1, filepath.Join("internal", "x", "x.go") + ":5:"},
		"renamed import": {map[string]string{
			"internal/x/x.go": "package x\n\nimport clock \"time\"\n\nvar T = clock.Now()\n"}, 1, "1 violation(s)"},
		"unlisted binary": {map[string]string{
			"cmd/newtool/main.go": callsNow}, 1, "1 violation(s)"},
		"unparsable file": {map[string]string{
			"internal/x/x.go": "package"}, 2, "lintclock:"},
	} {
		var stderr bytes.Buffer
		code := run([]string{tree(t, c.files)}, &stderr)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s", name, code, c.code, stderr.String())
		}
		if c.want == "" && stderr.Len() > 0 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%s: stderr %q, want it to contain %q", name, stderr.String(), c.want)
		}
	}
}
