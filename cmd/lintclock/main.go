// Command lintclock enforces the repo's clock discipline: pipeline code must
// read time through simclock.Clock, never time.Now, so instrumented and
// chaos-tested runs stay deterministic. It parses every non-test .go file
// and reports each time.Now call outside the exempt set:
//
//   - internal/simclock/simclock.go  (the Real clock implementation)
//   - the listed cmd/ binaries       (operator binaries run on wall clocks)
//   - *_test.go                      (tests may time themselves)
//
// The cmd/ exemption is a named allowlist, not a blanket: adding a binary
// means adding it here, so a new command does not silently opt out of the
// clock discipline.
//
// Exit status 1 with a file:line listing when violations exist, 2 when the
// tree cannot be walked or parsed; silent 0 otherwise. Run via `make lint`.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// exemptFiles are the only non-cmd, non-test files allowed to call time.Now.
var exemptFiles = map[string]bool{
	"internal/simclock/simclock.go": true,
}

// exemptCmds are the operator binaries allowed to run on the wall clock.
var exemptCmds = map[string]bool{
	"cmd/benchtables": true,
	"cmd/censysd":     true,
	"cmd/censysfsck":  true,
	"cmd/censysql":    true,
	"cmd/lintclock":   true,
}

func exempt(rel string) bool {
	if exemptFiles[rel] {
		return true
	}
	if strings.HasSuffix(rel, "_test.go") {
		return true
	}
	parts := strings.SplitN(rel, string(filepath.Separator), 3)
	if len(parts) >= 2 && exemptCmds[parts[0]+"/"+parts[1]] {
		return true
	}
	return parts[0] == ".git"
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is the whole command: it lints the tree rooted at args[0] (default
// "."), writes the violations to stderr, and returns the exit code.
func run(args []string, stderr io.Writer) int {
	root := "."
	if len(args) > 0 {
		root = args[0]
	}
	fset := token.NewFileSet()
	var violations []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		if d.IsDir() {
			if exempt(rel) && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || exempt(rel) {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return perr
		}
		// Resolve what identifier the "time" package is imported under; a
		// file that never imports time cannot call time.Now.
		timeName := ""
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) != "time" {
				continue
			}
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
		if timeName == "" || timeName == "_" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Now" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == timeName {
				violations = append(violations,
					fmt.Sprintf("%s: time.Now outside simclock", fset.Position(sel.Pos())))
			}
			return true
		})
		return nil
	})
	if err != nil {
		fmt.Fprintln(stderr, "lintclock:", err)
		return 2
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(stderr, v)
		}
		fmt.Fprintf(stderr, "lintclock: %d violation(s); pipeline code must use simclock.Clock\n",
			len(violations))
		return 1
	}
	return 0
}
