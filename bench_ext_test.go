// Benchmarks for the extension machinery: composition products, the
// simulation preorder, observation congruence, failures refinement, and
// extended (intersection) star expressions (experiment E14).
package ccs_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ccs"
	"ccs/internal/core"
	"ccs/internal/expr"
	"ccs/internal/failures"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/simulation"
)

func BenchmarkComposeRestrict(b *testing.B) {
	// Chains of cells: composing k one-place buffers explores the product
	// space (2^k states before restriction-pruning).
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("cells=%d", k), func(b *testing.B) {
			cells := make([]*fsp.FSP, k)
			for i := range cells {
				bd := fsp.NewBuilder(fmt.Sprintf("cell%d", i))
				bd.AddStates(2)
				in := fmt.Sprintf("c%d", i)
				out := fmt.Sprintf("c%d'", i+1)
				bd.ArcName(0, in, 1)
				bd.ArcName(1, out, 0)
				cells[i] = bd.MustBuild()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur := cells[0]
				var err error
				for j := 1; j < k; j++ {
					cur, err = ccs.Compose(cur, cells[j])
					if err != nil {
						b.Fatal(err)
					}
				}
				if _, err := ccs.Restrict(cur, "c1", "c2", "c3"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimulationPreorder(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			f := gen.RandomRestricted(rng, n, 3*n, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				simulation.Preorder(f)
			}
		})
	}
}

func BenchmarkObservationCongruence(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			f := gen.Random(rng, n, 3*n, 2, 0.3)
			g := gen.Random(rng, n, 3*n, 2, 0.3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.ObservationCongruent(f, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFailureRefinement(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	spec := gen.RandomRestricted(rng, 12, 30, 2)
	impl := gen.RandomRestricted(rng, 12, 30, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := failures.RefinesProcesses(spec, impl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14ExtendedRepresentative(b *testing.B) {
	exprs := map[string]string{
		"depth2": "(aa)*&(aaa)*",
		"depth3": "(aa)*&(aaa)*&(aaaaa)*",
		"depth4": "(aa)*&(aaa)*&(aaaaa)*&(aaaaaaa)*",
	}
	for name, src := range exprs {
		b.Run(name, func(b *testing.B) {
			e := mustParse(b, src)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := expr.Representative(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkQuotientWeak(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			f := gen.Random(rng, n, 3*n, 2, 0.3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.QuotientWeak(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
