// Command lintreach enforces that every function ships: each non-test func
// of the module (`go list ./...`: not bench/, not testdata/) must be linked
// into a binary, or be named in <root>/lintreach.allow with a reason.
//
// It builds every package main and bench/ (a module of its own) with
// -gcflags=all=-l, so no call hides in an inlined caller, plus a root
// program generated into an -overlay that references the root package's
// exported API and every allowlisted function. It reads code symbols with
// `go tool nm`, generic shapes stripped, so any instantiation reaches a
// generic function. It reports what nothing links, lists bench-only
// functions apart (not as failures), and rejects an allowlist entry that
// names no function or one a package main links. An entry is
// `pattern  # reason`, the pattern a path.Match glob over the names printed
// here: the package's path in the module (the module path for the root
// package), then .Func or .Type.Method.
//
// Exit status 1 on findings, 2 when the module cannot be listed, parsed or
// built. Run via `make lint`.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run lints the module rooted at args[0] (default "."), writes bench-only
// functions to stdout and findings to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	rep, err := lint(append(args, ".")[0])
	if err != nil {
		fmt.Fprintln(stderr, "lintreach:", err)
		return 2
	}
	for _, d := range rep.benchOnly {
		fmt.Fprintf(stdout, "bench-only: %s (%s)\n", d.name, d.pos)
	}
	for _, d := range rep.unreached {
		fmt.Fprintf(stderr, "%s: %s is linked by no binary\n", d.pos, d.name)
	}
	for _, e := range rep.allowErrs {
		fmt.Fprintln(stderr, e)
	}
	if n := len(rep.unreached) + len(rep.allowErrs); n > 0 {
		fmt.Fprintf(stderr, "lintreach: %d finding(s); delete what nothing links, or allowlist it in lintreach.allow with a reason\n", n)
		return 1
	}
	return 0
}

// decl is one func or method declaration.
type decl struct {
	name string // pkg.Func or pkg.Type.Method, pkg relative to the module
	sym  string // as `go tool nm` prints it, generic shapes stripped
	pos  string // file:line
	pkg  string // import path
	ref  string // how another package names it ("" if it cannot): .F, .T.M or (*.T).M
}

type report struct {
	unreached, benchOnly []decl
	allowErrs            []string
}

func lint(root string) (*report, error) {
	decls, mains, mod, err := parseModule(root)
	if err != nil {
		return nil, err
	}
	allow, err := readAllow(filepath.Join(root, "lintreach.allow"))
	if err != nil {
		return nil, err
	}
	rep := &report{}
	allowed := make(map[string]bool)
	for _, pat := range allow {
		n := 0
		for _, d := range decls {
			if ok, _ := path.Match(pat, d.name); ok {
				allowed[d.sym] = true
				n++
			}
		}
		if n == 0 {
			rep.allowErrs = append(rep.allowErrs, fmt.Sprintf("lintreach.allow: %q names no function", pat))
		}
	}
	tmp, err := os.MkdirTemp("", "lintreach")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// shipped maps a symbol to the first package main that links it.
	shipped := make(map[string]string)
	bins := filepath.Join(tmp, "bin") + string(filepath.Separator)
	if err := goCmd(root, append([]string{"build", "-gcflags=all=-l", "-o", bins}, mains...)...); err != nil {
		return nil, err
	}
	for _, m := range mains {
		syms, err := symbols(filepath.Join(bins, path.Base(m)), m)
		if err != nil {
			return nil, err
		}
		for s := range syms {
			if shipped[s] == "" {
				shipped[s] = m
			}
		}
	}
	facade, err := buildRoot(root, tmp, mod, decls, allowed)
	if err != nil {
		return nil, err
	}
	var bench map[string]bool
	if _, err := os.Stat(filepath.Join(root, "bench", "go.mod")); err == nil {
		if bench, err = build(filepath.Join(root, "bench"), filepath.Join(tmp, "benchbin"), "."); err != nil {
			return nil, err
		}
	}

	for _, d := range decls {
		switch bin := shipped[d.sym]; {
		case bin != "" && allowed[d.sym]:
			rep.allowErrs = append(rep.allowErrs, fmt.Sprintf("lintreach.allow: %s is linked by %s; it needs no entry", d.name, bin))
		case bin != "" || allowed[d.sym] || facade[d.sym]:
		case bench[d.sym]:
			rep.benchOnly = append(rep.benchOnly, d)
		default:
			rep.unreached = append(rep.unreached, d)
		}
	}
	return rep, nil
}

// parseModule lists the module's packages and records every declaration in
// their non-test files, plus the import paths of the package mains.
func parseModule(root string) (decls []decl, mains []string, mod string, err error) {
	cmd := exec.Command("go", "list", "-f", "{{.Module.Path}} {{.Module.Dir}} {{.ImportPath}} {{.Name}} {{.Dir}} {{join .GoFiles \" \"}}", "./...")
	cmd.Dir, cmd.Stderr = root, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, "", fmt.Errorf("go list: %v", err)
	}
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		modDir, pkg, name, dir := f[1], f[2], f[3], f[4]
		mod = f[0]
		if name == "main" {
			mains = append(mains, pkg)
		}
		short := strings.TrimPrefix(pkg, mod+"/")
		for _, file := range f[5:] {
			af, err := parser.ParseFile(fset, filepath.Join(dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, "", err
			}
			for _, fd := range af.Decls {
				fn, ok := fd.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "_" || fn.Recv == nil && fn.Name.Name == "init" {
					continue
				}
				d := declOf(fn, pkg, short)
				rel, _ := filepath.Rel(modDir, filepath.Join(dir, file)) // dir is inside modDir
				d.pos = fmt.Sprintf("%s:%d", filepath.ToSlash(rel), fset.Position(fn.Pos()).Line)
				if name == "main" {
					d.ref = ""
				}
				decls = append(decls, d)
			}
		}
	}
	return decls, mains, mod, nil
}

// declOf names fn the way nm and the allowlist do, and the way another
// package can reference it: never when it is unexported or generic.
func declOf(fn *ast.FuncDecl, pkg, short string) decl {
	name, typ, star, generic := fn.Name.Name, "", false, fn.Type.TypeParams != nil
	if fn.Recv != nil {
		t := fn.Recv.List[0].Type
		if s, ok := t.(*ast.StarExpr); ok {
			t, star = s.X, true
		}
		switch x := t.(type) {
		case *ast.IndexExpr:
			t, generic = x.X, true
		case *ast.IndexListExpr:
			t, generic = x.X, true
		}
		typ = t.(*ast.Ident).Name
	}
	d := decl{name: short + "." + name, sym: pkg + "." + name, pkg: pkg, ref: "." + name}
	switch {
	case star:
		d.name, d.sym, d.ref = short+"."+typ+"."+name, pkg+".(*"+typ+")."+name, "(*."+typ+")."+name
	case typ != "":
		d.name, d.sym, d.ref = short+"."+typ+"."+name, pkg+"."+typ+"."+name, "."+typ+"."+name
	}
	if !ast.IsExported(name) || typ != "" && !ast.IsExported(typ) || generic {
		d.ref = ""
	}
	return d
}

// readAllow returns the allowlist's patterns; a missing file is empty.
func readAllow(file string) ([]string, error) {
	b, err := os.ReadFile(file)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	var pats []string
	for n, line := range strings.Split(string(b), "\n") {
		pat, reason, _ := strings.Cut(line, "#")
		if pat = strings.TrimSpace(pat); pat == "" { // blank or comment
			continue
		}
		if _, err := path.Match(pat, ""); err != nil || strings.TrimSpace(reason) == "" || strings.ContainsAny(pat, " \t") {
			return nil, fmt.Errorf("%s:%d: want `pattern  # reason`", file, n+1)
		}
		pats = append(pats, pat)
	}
	return pats, err
}

// buildRoot builds the root program, which references each decl of the root
// package and each allowlisted one that another package can name, and
// returns the symbols it links.
func buildRoot(root, tmp, mod string, decls []decl, allowed map[string]bool) (map[string]bool, error) {
	alias := make(map[string]string)
	var imports, refs strings.Builder
	for _, d := range decls {
		if d.ref == "" || d.pkg != mod && !allowed[d.sym] {
			continue
		}
		a, ok := alias[d.pkg]
		if !ok {
			a = fmt.Sprintf("p%d", len(alias))
			alias[d.pkg] = a
			fmt.Fprintf(&imports, "import %s %q\n", a, d.pkg)
		}
		i := strings.IndexByte(d.ref, '.') // the package alias goes before the first dot
		fmt.Fprintf(&refs, "\t%s%s%s,\n", d.ref[:i], a, d.ref[i:])
	}
	src := fmt.Sprintf("package main\n\n%s\nvar keep = []any{\n%s}\n\nfunc main() { println(len(keep)) }\n", &imports, &refs)
	// The program lives in a directory that exists only in the overlay.
	gen, ov := filepath.Join(tmp, "root.go"), filepath.Join(tmp, "overlay.json")
	overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {"zz_lintreach_root/main.go": gen}}) // strings always encode
	if err := errors.Join(os.WriteFile(gen, []byte(src), 0o644), os.WriteFile(ov, overlay, 0o644)); err != nil {
		return nil, err
	}
	return build(root, filepath.Join(tmp, "rootbin"), "-overlay", ov, "./zz_lintreach_root")
}

// build builds one binary to out, with args, and returns its symbols.
func build(dir, out string, args ...string) (map[string]bool, error) {
	if err := goCmd(dir, append([]string{"build", "-gcflags=all=-l", "-o", out}, args...)...); err != nil {
		return nil, err
	}
	return symbols(out, "")
}

// symbols returns the code symbols of binary bin, generic shapes stripped,
// with package main's renamed to mainPkg when it is set.
func symbols(bin, mainPkg string) (map[string]bool, error) {
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool nm %s: %v", bin, err)
	}
	syms := make(map[string]bool)
	for _, line := range strings.Split(string(out), "\n") {
		if name, ok := codeSymbol(line); ok {
			if mainPkg != "" && strings.HasPrefix(name, "main.") {
				name = mainPkg + name[len("main"):]
			}
			syms[name] = true
		}
	}
	return syms, nil
}

// codeSymbol returns the name on an nm line ("addr T name") when the symbol
// is code. The name is everything after the type letter (generic shapes
// contain spaces), with every bracketed type-argument list deleted:
// pkg.F[go.shape.int] → pkg.F, pkg.(*T[go.shape.struct { a []int }]).M →
// pkg.(*T).M. Quoted struct tags inside a shape are skipped whole.
func codeSymbol(line string) (string, bool) {
	addr, s, _ := strings.Cut(strings.TrimLeft(line, " "), " ")
	if addr == "" || len(s) < 3 || s[1] != ' ' || s[0] != 'T' && s[0] != 't' {
		return "", false
	}
	s = s[2:]
	var b strings.Builder
	depth, quoted := 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quoted && c == '\\':
			i++
		case quoted:
			quoted = c != '"'
		case depth > 0 && c == '"':
			quoted = true
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteByte(c)
		}
	}
	return b.String(), true
}

func goCmd(dir string, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return nil
}
