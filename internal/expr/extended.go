package expr

// Extended star expressions: Section 6 of the paper proposes extending the
// calculus with operators like intersection, whose semantics is a "direct
// product of states" construction on the representative processes, and
// observes that extended expressions are succinct programs with large
// representative FSPs — nesting products multiplies state counts while
// adding only linearly to expression length.
//
// This file adds the intersection operator '&' with exactly that
// semantics: the representative of r1 & r2 is the synchronized product of
// the representatives. The Lemma 2.3.1 linear-size guarantee deliberately
// does NOT extend to it (that is the point); see the E14 experiment.

// Inter is the extended-expression intersection r1 & r2.
type Inter struct{ L, R Expr }

func (Inter) isExpr() {}

func (i Inter) String() string {
	return wrapUnionOrInter(i.L) + "&" + wrapUnionOrInter(i.R)
}

// Length implements Expr.
func (i Inter) Length() int { return i.L.Length() + i.R.Length() + 1 }

// wrapUnionOrInter parenthesizes a union or intersection operand of a
// concatenation or intersection. Both bind looser than concatenation, and
// '&' associates to the left, so without the parentheses the rendering
// would parse back to a different tree.
func wrapUnionOrInter(e Expr) string {
	switch e.(type) {
	case Union, Inter:
		return "(" + e.String() + ")"
	default:
		return e.String()
	}
}

// IsExtended reports whether e uses any extended operator, i.e. whether it
// falls outside the star-expression fragment of Definition 2.3.1.
func IsExtended(e Expr) bool {
	switch t := e.(type) {
	case Inter:
		return true
	case Union:
		return IsExtended(t.L) || IsExtended(t.R)
	case Concat:
		return IsExtended(t.L) || IsExtended(t.R)
	case Star:
		return IsExtended(t.Sub)
	default:
		return false
	}
}
