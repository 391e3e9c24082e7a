// Package fingerdsl implements the small Lisp-like DSL the enrichment layer
// uses for static fingerprints (paper §5.2: "processors written in a
// Lisp-like DSL" alongside declarative filters). Expressions evaluate
// against a field context — the flattened attributes of a service record —
// and produce a boolean match.
//
// Grammar:
//
//	expr   := atom | '(' op expr* ')'
//	atom   := "string" | number | symbol
//
// Symbols evaluate to the value of the named field ("" when absent).
// Operators: and, or, not, =, !=, contains, prefix, suffix, lower, upper,
// exists, port-in, >, <, concat.
package fingerdsl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Context supplies field values to an expression.
type Context interface {
	// Field returns the named field's value and whether it exists.
	Field(name string) (string, bool)
}

// MapContext is a Context over a plain map.
type MapContext map[string]string

// Field implements Context.
func (m MapContext) Field(name string) (string, bool) {
	v, ok := m[name]
	return v, ok
}

// Value is a DSL runtime value: string, int64, or bool.
type Value any

// node is a parsed expression.
type node struct {
	// list is non-nil for s-expressions.
	list []node
	// atom fields (exactly one used when list is nil).
	str    *string
	num    *int64
	symbol string
}

// Expr is a compiled expression.
type Expr struct {
	root node
	src  string
}

// String returns the source text.
func (e *Expr) String() string { return e.src }

// Parse compiles DSL source.
func Parse(src string) (*Expr, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	root, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("fingerdsl: trailing tokens after expression")
	}
	return &Expr{root: root, src: src}, nil
}

// MustParse is Parse that panics; for static fingerprint tables.
func MustParse(src string) *Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// token kinds
type token struct {
	kind byte // '(', ')', 's'tring, 'n'umber, 'y'mbol
	text string
	num  int64
}

func tokenize(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '(' || c == ')':
			toks = append(toks, token{kind: c})
			i++
		case unicode.IsSpace(rune(c)):
			i++
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					j++
				}
				sb.WriteByte(src[j])
				j++
			}
			if j >= len(src) {
				return nil, errors.New("fingerdsl: unterminated string")
			}
			toks = append(toks, token{kind: 's', text: sb.String()})
			i = j + 1
		default:
			j := i
			for j < len(src) && src[j] != '(' && src[j] != ')' && src[j] != '"' &&
				!unicode.IsSpace(rune(src[j])) {
				j++
			}
			word := src[i:j]
			if n, err := strconv.ParseInt(word, 10, 64); err == nil {
				toks = append(toks, token{kind: 'n', num: n})
			} else {
				toks = append(toks, token{kind: 'y', text: word})
			}
			i = j
		}
	}
	if len(toks) == 0 {
		return nil, errors.New("fingerdsl: empty expression")
	}
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) parseExpr() (node, error) {
	if p.pos >= len(p.toks) {
		return node{}, errors.New("fingerdsl: unexpected end of input")
	}
	t := p.toks[p.pos]
	p.pos++
	switch t.kind {
	case '(':
		var list []node
		for {
			if p.pos >= len(p.toks) {
				return node{}, errors.New("fingerdsl: unclosed parenthesis")
			}
			if p.toks[p.pos].kind == ')' {
				p.pos++
				return node{list: list}, nil
			}
			child, err := p.parseExpr()
			if err != nil {
				return node{}, err
			}
			list = append(list, child)
		}
	case ')':
		return node{}, errors.New("fingerdsl: unexpected ')'")
	case 's':
		s := t.text
		return node{str: &s}, nil
	case 'n':
		n := t.num
		return node{num: &n}, nil
	default:
		return node{symbol: t.text}, nil
	}
}

// Eval evaluates the expression against ctx.
func (e *Expr) Eval(ctx Context) (Value, error) {
	return eval(e.root, ctx)
}

// Match evaluates and coerces the result to a boolean: false, "", and 0 are
// falsy; everything else is truthy.
func (e *Expr) Match(ctx Context) bool {
	v, err := e.Eval(ctx)
	if err != nil {
		return false
	}
	return truthy(v)
}

func truthy(v Value) bool {
	switch t := v.(type) {
	case bool:
		return t
	case string:
		return t != ""
	case int64:
		return t != 0
	default:
		return false
	}
}

func asString(v Value) string {
	switch t := v.(type) {
	case string:
		return t
	case int64:
		return strconv.FormatInt(t, 10)
	case bool:
		if t {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

// evalString is asString(eval(n, ctx)) without boxing a literal or a field.
func evalString(n node, ctx Context) (string, error) {
	switch {
	case n.str != nil:
		return *n.str, nil
	case n.symbol != "":
		v, _ := ctx.Field(n.symbol)
		return v, nil
	}
	v, err := eval(n, ctx)
	return asString(v), err
}

func eval(n node, ctx Context) (Value, error) {
	switch {
	case n.str != nil:
		return *n.str, nil
	case n.num != nil:
		return *n.num, nil
	case n.symbol != "":
		v, _ := ctx.Field(n.symbol)
		return v, nil
	}
	if len(n.list) == 0 {
		return nil, errors.New("fingerdsl: empty list")
	}
	head := n.list[0]
	if head.symbol == "" {
		return nil, errors.New("fingerdsl: operator must be a symbol")
	}
	op := head.symbol
	args := n.list[1:]

	// Short-circuit forms first, then the two-string predicates fingerprints
	// are made of, which compare strings without boxing them.
	switch op {
	case "=", "!=", "contains", "prefix", "suffix":
		if len(args) != 2 {
			break // the arity is reported below, after the arguments
		}
		a, err := evalString(args[0], ctx)
		if err != nil {
			return nil, err
		}
		b, err := evalString(args[1], ctx)
		if err != nil {
			return nil, err
		}
		switch op {
		case "=":
			return a == b, nil
		case "!=":
			return a != b, nil
		case "contains":
			return strings.Contains(a, b), nil
		case "prefix":
			return strings.HasPrefix(a, b), nil
		}
		return strings.HasSuffix(a, b), nil
	case "exists":
		if len(args) == 1 && args[0].symbol != "" {
			_, ok := ctx.Field(args[0].symbol)
			return ok, nil
		}
	case "and":
		for _, a := range args {
			v, err := eval(a, ctx)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				return false, nil
			}
		}
		return true, nil
	case "or":
		for _, a := range args {
			v, err := eval(a, ctx)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				return true, nil
			}
		}
		return false, nil
	}

	var buf [4]Value
	vals := buf[:0]
	for _, a := range args {
		v, err := eval(a, ctx)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}

	need := func(k int) error {
		if len(vals) != k {
			return fmt.Errorf("fingerdsl: %s expects %d args, got %d", op, k, len(vals))
		}
		return nil
	}

	switch op {
	case "not":
		if err := need(1); err != nil {
			return nil, err
		}
		return !truthy(vals[0]), nil
	case "=", "!=", "contains", "prefix", "suffix":
		return nil, need(2) // two arguments were answered above
	case "lower":
		if err := need(1); err != nil {
			return nil, err
		}
		return strings.ToLower(asString(vals[0])), nil
	case "upper":
		if err := need(1); err != nil {
			return nil, err
		}
		return strings.ToUpper(asString(vals[0])), nil
	case "exists":
		if err := need(1); err != nil {
			return nil, err
		}
		// A symbol argument was answered above; a string names the field.
		_, ok := ctx.Field(asString(vals[0]))
		return ok, nil
	case "concat":
		var sb strings.Builder
		for _, v := range vals {
			sb.WriteString(asString(v))
		}
		return sb.String(), nil
	case ">", "<":
		if err := need(2); err != nil {
			return nil, err
		}
		a, errA := strconv.ParseInt(asString(vals[0]), 10, 64)
		b, errB := strconv.ParseInt(asString(vals[1]), 10, 64)
		if errA != nil || errB != nil {
			return false, nil
		}
		if op == ">" {
			return a > b, nil
		}
		return a < b, nil
	case "port-in":
		port, _ := ctx.Field("port")
		for _, v := range vals {
			if asString(v) == port {
				return true, nil
			}
		}
		return false, nil
	default:
		return nil, fmt.Errorf("fingerdsl: unknown operator %q", op)
	}
}
