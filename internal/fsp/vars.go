package fsp

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// VarID identifies a variable (an element of the set V of Definition 2.1.1).
type VarID int32

// MaxVars bounds the number of distinct variables per VarTable. Extensions
// are stored as 64-bit sets; the paper's models use V = {x}, so the bound is
// generous in practice.
const MaxVars = 64

// StandardVar is the single variable of the standard model, in which a state
// q is accepting iff E(q) = {x}.
const StandardVar = "x"

// VarTable interns variable names. Like Alphabet it is append-only.
type VarTable struct {
	names []string
	index map[string]VarID
}

// NewVarTable returns a table containing the given variables in order.
func NewVarTable(vars ...string) (*VarTable, error) {
	t := &VarTable{index: make(map[string]VarID, len(vars))}
	for _, name := range vars {
		if _, err := t.Intern(name); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustVarTable is NewVarTable for statically known inputs; it panics on
// error and is intended for package-level construction of fixtures.
func MustVarTable(vars ...string) *VarTable {
	t, err := NewVarTable(vars...)
	if err != nil {
		panic(err)
	}
	return t
}

// Intern returns the VarID for name, adding it if absent.
func (t *VarTable) Intern(name string) (VarID, error) {
	if id, ok := t.index[name]; ok {
		return id, nil
	}
	if len(t.names) >= MaxVars {
		return 0, fmt.Errorf("variable table full: %d variables supported", MaxVars)
	}
	id := VarID(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = id
	return id, nil
}

// Lookup returns the VarID for name and whether it is present.
func (t *VarTable) Lookup(name string) (VarID, bool) {
	id, ok := t.index[name]
	return id, ok
}

// Name returns the textual name of id.
func (t *VarTable) Name(id VarID) string { return t.names[id] }

// Len reports the number of interned variables.
func (t *VarTable) Len() int { return len(t.names) }

// Clone returns an independent copy of the table.
func (t *VarTable) Clone() *VarTable {
	c := &VarTable{
		names: make([]string, len(t.names)),
		index: make(map[string]VarID, len(t.index)),
	}
	copy(c.names, t.names)
	for k, v := range t.index {
		c.index[k] = v
	}
	return c
}

// Equal reports whether two tables intern the same names to the same IDs.
func (t *VarTable) Equal(u *VarTable) bool {
	if len(t.names) != len(u.names) {
		return false
	}
	for i, n := range t.names {
		if u.names[i] != n {
			return false
		}
	}
	return true
}

// VarSet is a set of variables, the extension E(q) of a state. The zero
// value is the empty set. VarSets are comparable with ==.
type VarSet uint64

// EmptyVars is the empty extension.
const EmptyVars VarSet = 0

// Has reports whether id is in the set.
func (s VarSet) Has(id VarID) bool { return s&(1<<uint(id)) != 0 }

// With returns the set extended with id.
func (s VarSet) With(id VarID) VarSet { return s | 1<<uint(id) }

// IsEmpty reports whether the set is empty.
func (s VarSet) IsEmpty() bool { return s == 0 }

// Len reports the number of variables in the set.
func (s VarSet) Len() int { return bits.OnesCount64(uint64(s)) }

// IDs returns the members in increasing order.
func (s VarSet) IDs() []VarID {
	ids := make([]VarID, 0, s.Len())
	for v := s; v != 0; {
		i := bits.TrailingZeros64(uint64(v))
		ids = append(ids, VarID(i))
		v &^= 1 << uint(i)
	}
	return ids
}

// Format renders the set as "{a,b}" using names from t, sorted by name.
func (s VarSet) Format(t *VarTable) string {
	names := make([]string, 0, s.Len())
	for _, id := range s.IDs() {
		names = append(names, t.Name(id))
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}
