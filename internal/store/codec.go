package store

import (
	"encoding/binary"
	"fmt"

	"ccs/internal/fsp"
)

// This file is the payload codec of the store: a compact varint-based
// binary encoding of the one artifact family the engine spills, processes
// (quotients). The decoder is written against hostile input: a payload is
// a disk artifact that may have been truncated, bit-flipped or written by
// a future version, and the store's contract is that anything unreadable
// is a cold miss, never a panic or a wrong artifact. Structural
// validation is delegated to fsp.Builder.Build, which re-checks the
// invariants the algorithms rely on.

// encoder accumulates a payload. All integers are unsigned varints; counts
// precede their elements; strings are length-prefixed.
type encoder struct {
	b []byte
}

func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) vint(v int)       { e.uvarint(uint64(v)) }
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// decoder consumes a payload, latching the first error; all accessors
// return zero values after a failure, so decode functions can be written
// straight-line and check err once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("store: truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// vint reads a non-negative int and bounds it both against the platform
// int and against the remaining payload when each element costs at least
// one byte — a corrupt count can then never drive a huge allocation.
func (d *decoder) vint(perElement int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(int(^uint(0)>>1)) || (perElement > 0 && v > uint64(len(d.b))) {
		d.fail("store: implausible count %d for %d remaining bytes", v, len(d.b))
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.vint(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("store: %d trailing bytes after payload", len(d.b))
	}
	return nil
}

// encodeFSP serializes a process: name, observable action names and
// variable names in interning order (so decoded Action and VarID values
// match the original), then per-state extensions and arcs.
func encodeFSP(f *fsp.FSP) []byte {
	e := &encoder{}
	e.str(f.Name())
	alpha := f.Alphabet()
	e.vint(alpha.Len() - 1) // observable actions; tau is implicit
	for _, a := range alpha.Observable() {
		e.str(alpha.Name(a))
	}
	vars := f.Vars()
	e.vint(vars.Len())
	for id := 0; id < vars.Len(); id++ {
		e.str(vars.Name(fsp.VarID(id)))
	}
	n := f.NumStates()
	e.vint(n)
	e.vint(int(f.Start()))
	for s := 0; s < n; s++ {
		ids := f.Ext(fsp.State(s)).IDs()
		e.vint(len(ids))
		for _, id := range ids {
			e.vint(int(id))
		}
		arcs := f.Arcs(fsp.State(s))
		e.vint(len(arcs))
		for _, a := range arcs {
			e.vint(int(a.Act))
			e.vint(int(a.To))
		}
	}
	return e.b
}

func decodeFSP(payload []byte) (*fsp.FSP, error) {
	d := &decoder{b: payload}
	name := d.str()
	numObs := d.vint(1)
	obs := make([]string, 0, numObs)
	for i := 0; i < numObs; i++ {
		nm := d.str()
		if nm == fsp.TauName || nm == "" {
			d.fail("store: invalid observable action %q", nm)
		}
		obs = append(obs, nm)
	}
	numVars := d.vint(1)
	varNames := make([]string, 0, numVars)
	for i := 0; i < numVars; i++ {
		varNames = append(varNames, d.str())
	}
	n := d.vint(1)
	start := d.vint(0)
	if d.err != nil {
		return nil, d.err
	}
	if n == 0 || start >= n {
		return nil, fmt.Errorf("store: process with %d states, start %d", n, start)
	}
	alpha := fsp.NewAlphabet(obs...)
	if alpha.Len() != numObs+1 {
		return nil, fmt.Errorf("store: duplicate action names in payload")
	}
	vt, err := fsp.NewVarTable(varNames...)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	b := fsp.NewBuilderWith(name, alpha, vt)
	b.AddStates(n)
	b.SetStart(fsp.State(start))
	for s := 0; s < n; s++ {
		numExt := d.vint(1)
		for i := 0; i < numExt; i++ {
			id := d.vint(0)
			if d.err != nil {
				return nil, d.err
			}
			if id >= numVars {
				return nil, fmt.Errorf("store: out-of-range variable id %d", id)
			}
			b.Extend(fsp.State(s), vt.Name(fsp.VarID(id)))
		}
		numArcs := d.vint(2)
		for i := 0; i < numArcs; i++ {
			act := d.vint(0)
			to := d.vint(0)
			if d.err != nil {
				return nil, d.err
			}
			if act > numObs || to >= n {
				return nil, fmt.Errorf("store: out-of-range arc (%d, %d)", act, to)
			}
			b.Arc(fsp.State(s), fsp.Action(act), fsp.State(to))
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return b.Build()
}
