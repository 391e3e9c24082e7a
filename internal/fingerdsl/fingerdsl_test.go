package fingerdsl

import "testing"

// mapContext is a Context over a plain map.
type mapContext map[string]string

func (m mapContext) Field(name string) (string, bool) {
	v, ok := m[name]
	return v, ok
}

var ctx = mapContext{
	"http.title":  "RouterOS router configuration page",
	"http.server": "nginx/1.24.0",
	"port":        "8080",
	"empty":       "",
}

func mustMatch(t *testing.T, src string, want bool) {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	if got := e.Match(ctx); got != want {
		t.Fatalf("Match(%q) = %v, want %v", src, got, want)
	}
}

func TestAtomEvaluation(t *testing.T) {
	mustMatch(t, `"x"`, true)
	mustMatch(t, `""`, false)
	mustMatch(t, `42`, true)
	mustMatch(t, `0`, false)
	mustMatch(t, `http.title`, true) // non-empty field
	mustMatch(t, `missing.field`, false)
}

func TestEquality(t *testing.T) {
	mustMatch(t, `(= http.server "nginx/1.24.0")`, true)
	mustMatch(t, `(= http.server "apache")`, false)
	mustMatch(t, `(!= http.server "apache")`, true)
	mustMatch(t, `(= port 8080)`, true)
}

func TestStringOps(t *testing.T) {
	mustMatch(t, `(contains http.title "RouterOS")`, true)
	mustMatch(t, `(contains http.title "WAC6552D-S")`, false)
	mustMatch(t, `(prefix http.server "nginx")`, true)
	mustMatch(t, `(suffix http.server "1.24.0")`, true)
	mustMatch(t, `(= (lower http.title) "routeros router configuration page")`, true)
	mustMatch(t, `(contains (upper http.title) "ROUTEROS")`, true)
	mustMatch(t, `(= (concat "a" "b" 1) "ab1")`, true)
}

func TestBooleanOps(t *testing.T) {
	mustMatch(t, `(and (contains http.title "RouterOS") (prefix http.server "nginx"))`, true)
	mustMatch(t, `(and (contains http.title "RouterOS") (prefix http.server "apache"))`, false)
	mustMatch(t, `(or (= port 80) (= port 8080))`, true)
	mustMatch(t, `(not (= port 80))`, true)
	mustMatch(t, `(and)`, true)
	mustMatch(t, `(or)`, false)
}

func TestShortCircuit(t *testing.T) {
	// (or true (unknown-op)) must not error: or short-circuits.
	e := MustParse(`(or (= port 8080) (bogus-op "x"))`)
	if !e.Match(ctx) {
		t.Fatal("short-circuit or failed")
	}
	e = MustParse(`(and (= port 80) (bogus-op "x"))`)
	if e.Match(ctx) {
		t.Fatal("short-circuit and failed")
	}
}

func TestExists(t *testing.T) {
	mustMatch(t, `(exists http.title)`, true)
	mustMatch(t, `(exists empty)`, true) // present but empty
	mustMatch(t, `(exists nope)`, false)
	mustMatch(t, `(exists "http.title")`, true)
}

func TestComparison(t *testing.T) {
	mustMatch(t, `(> port 8000)`, true)
	mustMatch(t, `(< port 8000)`, false)
	mustMatch(t, `(> http.title 1)`, false) // non-numeric: false, no error
}

func TestPortIn(t *testing.T) {
	mustMatch(t, `(port-in 80 443 8080)`, true)
	mustMatch(t, `(port-in 80 443)`, false)
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``, `(`, `)`, `(= a b`, `"unterminated`, `(= a b) extra`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	for _, src := range []string{`(bogus 1)`, `(not 1 2)`, `(= 1)`, `(())`, `(1 2)`} {
		e, err := Parse(src)
		if err != nil {
			continue // some are parse-time errors; fine either way
		}
		if _, err := e.Eval(ctx); err == nil {
			t.Errorf("Eval(%q) succeeded, want error", src)
		}
		if e.Match(ctx) {
			t.Errorf("Match(%q) = true on error", src)
		}
	}
}

func TestEscapedString(t *testing.T) {
	e := MustParse(`(= "a\"b" "a\"b")`)
	if !e.Match(ctx) {
		t.Fatal("escaped quote mishandled")
	}
}

func TestRealWorldFingerprintShape(t *testing.T) {
	// The paper's example: html_title: "WAC6552D-S".
	zyxel := MustParse(`(= http.title "WAC6552D-S")`)
	if zyxel.Match(ctx) {
		t.Fatal("should not match")
	}
	if !zyxel.Match(mapContext{"http.title": "WAC6552D-S"}) {
		t.Fatal("should match")
	}
}

func TestStringRoundTrip(t *testing.T) {
	src := `(and (= a "b") (> port 10))`
	if MustParse(src).String() != src {
		t.Fatal("source not preserved")
	}
}
