// Package expr implements the star expressions of Section 2.3: regular
// expression syntax (∅, symbols, union, concatenation, Kleene star) with CCS
// semantics. The semantics of a star expression is the class of observable
// standard FSPs whose start states are strongly equivalent to the start
// state of the expression's representative FSP, constructed inductively by
// Definition 2.3.1 (Fig. 3).
//
// Two star expressions are CCS-equivalent iff their representative FSPs have
// strongly equivalent start states; they are language-equivalent iff the
// representatives — which are ordinary NFAs — accept the same language. The
// two notions genuinely differ: r·(s∪t) = r·s ∪ r·t holds for languages but
// fails in CCS (Section 2.3, item 3).
package expr

import (
	"errors"
	"fmt"
)

// MaxParseDepth caps parenthesis nesting in Parse. The recursive-descent
// parser burns one stack frame chain per '(' — the cap turns adversarial
// inputs like ((((…)))) into a typed error instead of a stack overflow.
const MaxParseDepth = 10000

// ErrParseDepth is wrapped by the error Parse returns for expressions
// whose parenthesis nesting exceeds MaxParseDepth.
var ErrParseDepth = errors.New("expr: expression nests too deeply")

// Expr is the AST of a star expression.
type Expr interface {
	fmt.Stringer
	isExpr()
	// Length is the number of symbols of the expression string, the size
	// measure of Lemma 2.3.1.
	Length() int
}

// Empty is the expression ∅, denoting (in CCS semantics) the process with no
// transitions and no extension.
type Empty struct{}

func (Empty) isExpr()        {}
func (Empty) String() string { return "0" }

// Length implements Expr.
func (Empty) Length() int { return 1 }

// Sym is a single action symbol.
type Sym struct{ Name string }

func (Sym) isExpr()          {}
func (s Sym) String() string { return s.Name }

// Length implements Expr.
func (Sym) Length() int { return 1 }

// Union is r1 ∪ r2.
type Union struct{ L, R Expr }

func (Union) isExpr() {}
func (u Union) String() string {
	return u.L.String() + "+" + u.R.String()
}

// Length implements Expr.
func (u Union) Length() int { return u.L.Length() + u.R.Length() + 1 }

// Concat is r1 · r2.
type Concat struct{ L, R Expr }

func (Concat) isExpr() {}
func (c Concat) String() string {
	return wrapUnionOrInter(c.L) + wrapUnionOrInter(c.R)
}

// Length implements Expr.
func (c Concat) Length() int { return c.L.Length() + c.R.Length() + 1 }

// Star is r*.
type Star struct{ Sub Expr }

func (Star) isExpr() {}
func (s Star) String() string {
	return wrapNonAtom(s.Sub) + "*"
}

// Length implements Expr.
func (s Star) Length() int { return s.Sub.Length() + 1 }

func wrapNonAtom(e Expr) string {
	switch e.(type) {
	case Sym, Empty, Star:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

// Parse reads a star expression. Grammar (standard regular-expression
// precedence, star > concatenation > union):
//
//	expr   := term ('+' term)*
//	term   := factor+
//	factor := atom '*'*
//	atom   := SYMBOL | '0' | '(' expr ')'
//
// A SYMBOL is a single letter; '0' denotes ∅. Whitespace and '.' (explicit
// concatenation) are permitted and ignored between factors.
func Parse(input string) (Expr, error) {
	p := &parser{src: input}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return nil, fmt.Errorf("expr: unexpected %q at offset %d", p.src[p.pos], p.pos)
	}
	return e, nil
}

type parser struct {
	src   string
	pos   int
	depth int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '.') {
		p.pos++
	}
}

func (p *parser) peek() (byte, bool) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0, false
	}
	return p.src[p.pos], true
}

func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseInter()
	if err != nil {
		return nil, err
	}
	for {
		c, ok := p.peek()
		if !ok || (c != '+' && c != '|') {
			return left, nil
		}
		p.pos++
		right, err := p.parseInter()
		if err != nil {
			return nil, err
		}
		left = Union{L: left, R: right}
	}
}

// parseInter handles the extended intersection operator '&' (Section 6),
// binding tighter than union, looser than concatenation.
func (p *parser) parseInter() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		c, ok := p.peek()
		if !ok || c != '&' {
			return left, nil
		}
		p.pos++
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = Inter{L: left, R: right}
	}
}

func (p *parser) parseTerm() (Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		c, ok := p.peek()
		if !ok || c == '+' || c == '|' || c == '&' || c == ')' {
			return left, nil
		}
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = Concat{L: left, R: right}
	}
}

func (p *parser) parseFactor() (Expr, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		c, ok := p.peek()
		if !ok || c != '*' {
			return atom, nil
		}
		p.pos++
		atom = Star{Sub: atom}
	}
}

func (p *parser) parseAtom() (Expr, error) {
	c, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("expr: unexpected end of input")
	}
	switch {
	case c == '(':
		p.depth++
		if p.depth > MaxParseDepth {
			return nil, fmt.Errorf("%w: more than %d nested '(' at offset %d", ErrParseDepth, MaxParseDepth, p.pos)
		}
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.depth--
		c2, ok := p.peek()
		if !ok || c2 != ')' {
			return nil, fmt.Errorf("expr: missing ')' at offset %d", p.pos)
		}
		p.pos++
		return e, nil
	case c == '0':
		p.pos++
		return Empty{}, nil
	case isSymbolChar(c):
		p.pos++
		return Sym{Name: string(c)}, nil
	default:
		return nil, fmt.Errorf("expr: unexpected %q at offset %d", c, p.pos)
	}
}

func isSymbolChar(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// Symbols returns the distinct action symbols of e in first-appearance
// order.
func Symbols(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch t := e.(type) {
		case Sym:
			if !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t.Name)
			}
		case Union:
			walk(t.L)
			walk(t.R)
		case Concat:
			walk(t.L)
			walk(t.R)
		case Inter:
			walk(t.L)
			walk(t.R)
		case Star:
			walk(t.Sub)
		}
	}
	walk(e)
	return out
}
