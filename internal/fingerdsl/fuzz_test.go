package fingerdsl

import (
	"strings"
	"testing"
)

// FuzzParse: the fingerprint-DSL parser must never panic, and anything it
// accepts must evaluate without panicking and re-parse from its own String.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		``,
		`http.title`,
		`(= http.server "nginx/1.24.0")`,
		`(!= http.server "apache")`,
		`(= port 8080)`,
		`(contains http.title "RouterOS")`,
		`(prefix http.server "nginx")`,
		`(suffix http.server "1.24.0")`,
		`(= (lower http.title) "routeros router configuration page")`,
		`(contains (upper http.title) "ROUTEROS")`,
		`(and (= port 443) (contains http.title "login"))`,
		`(or (= a "x") (= b "y"))`,
		`(not (= http.server ""))`,
		`(= a "unterminated`,
		`((((`,
		`(= a b c d e f)`,
		`(bogusop x "y")`,
		"(= a \"\\\"escaped\\\"\")",
		`(= a "unicode ☃")`,
		"\x00\xff(=",
	} {
		f.Add(seed)
	}
	ctx := MapContext{
		"http.title":  "RouterOS router configuration page",
		"http.server": "nginx/1.24.0",
		"port":        "8080",
		"a":           "x",
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		// Accepted input: evaluation must not panic (errors are fine),
		// and the expression must round-trip through its source form.
		e.Eval(ctx)
		e.Match(ctx)
		checkStringPredicate(t, src, e.root, ctx)
		if _, err := Parse(e.String()); err != nil {
			t.Fatalf("accepted %q but re-parse of String %q failed: %v", src, e.String(), err)
		}
	})
}

// checkStringPredicate: a two-argument string predicate evaluated without
// boxing answers what evaluating both arguments first and comparing their
// string forms answers, error for error.
func checkStringPredicate(t *testing.T, src string, n node, ctx Context) {
	if len(n.list) != 3 {
		return
	}
	a, errA := eval(n.list[1], ctx)
	b, errB := eval(n.list[2], ctx)
	x, y := asString(a), asString(b)
	var want bool
	switch n.list[0].symbol {
	case "=":
		want = x == y
	case "!=":
		want = x != y
	case "contains":
		want = strings.Contains(x, y)
	case "prefix":
		want = strings.HasPrefix(x, y)
	case "suffix":
		want = strings.HasSuffix(x, y)
	default:
		return
	}
	got, err := eval(n, ctx)
	if (err != nil) != (errA != nil || errB != nil) || err == nil && got != want {
		t.Fatalf("%q = %v, %v; arguments first: %v (errors %v, %v)", src, got, err, want, errA, errB)
	}
}
