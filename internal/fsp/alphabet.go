package fsp

import "fmt"

// Action identifies an action symbol of an FSP. Action 0 is always Tau, the
// unobservable action of CCS; all other actions are observable members of the
// alphabet Sigma of Definition 2.1.1.
type Action int32

// Tau is the unobservable action. It is a member of every Alphabet but is
// never part of Sigma itself (the paper keeps tau distinct from Sigma, and
// distinct from the empty string epsilon).
const Tau Action = 0

// TauName is the textual spelling of the unobservable action.
const TauName = "tau"

// Alphabet interns action names and assigns them dense Action indices.
// Index 0 is reserved for Tau. Alphabets are append-only: actions can be
// added but never removed, so Action values remain stable for the lifetime
// of the alphabet.
type Alphabet struct {
	names []string
	index map[string]Action
}

// NewAlphabet returns an alphabet containing Tau plus the given observable
// actions, in order. Duplicate names are interned once.
func NewAlphabet(actions ...string) *Alphabet {
	a := &Alphabet{
		names: make([]string, 1, len(actions)+1),
		index: make(map[string]Action, len(actions)+1),
	}
	a.names[0] = TauName
	a.index[TauName] = Tau
	for _, name := range actions {
		a.Intern(name)
	}
	return a
}

// Intern returns the Action for name, adding it to the alphabet if absent.
// Interning "tau" returns Tau.
func (a *Alphabet) Intern(name string) Action {
	if act, ok := a.index[name]; ok {
		return act
	}
	act := Action(len(a.names))
	a.names = append(a.names, name)
	a.index[name] = act
	return act
}

// Lookup returns the Action for name and whether it is present.
func (a *Alphabet) Lookup(name string) (Action, bool) {
	act, ok := a.index[name]
	return act, ok
}

// Name returns the textual name of act. It panics on out-of-range actions,
// which indicate a corrupted Action value rather than a recoverable error.
func (a *Alphabet) Name(act Action) string {
	return a.names[act]
}

// Len reports the number of actions including Tau.
func (a *Alphabet) Len() int { return len(a.names) }

// NumObservable reports the number of observable actions (|Sigma|).
func (a *Alphabet) NumObservable() int { return len(a.names) - 1 }

// Observable returns the observable actions in index order.
func (a *Alphabet) Observable() []Action {
	acts := make([]Action, 0, len(a.names)-1)
	for i := 1; i < len(a.names); i++ {
		acts = append(acts, Action(i))
	}
	return acts
}

// Clone returns an independent copy of the alphabet.
func (a *Alphabet) Clone() *Alphabet {
	c := &Alphabet{
		names: make([]string, len(a.names)),
		index: make(map[string]Action, len(a.index)),
	}
	copy(c.names, a.names)
	for k, v := range a.index {
		c.index[k] = v
	}
	return c
}

// Equal reports whether two alphabets intern exactly the same names to the
// same indices. Equivalence notions in the paper are only defined for FSPs
// "which have the same Sigma and V".
func (a *Alphabet) Equal(b *Alphabet) bool {
	if len(a.names) != len(b.names) {
		return false
	}
	for i, n := range a.names {
		if b.names[i] != n {
			return false
		}
	}
	return true
}

func (a *Alphabet) String() string {
	return fmt.Sprintf("Sigma%v", a.names[1:])
}
