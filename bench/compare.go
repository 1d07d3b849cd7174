package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// command runs there or in bench/.
func loadSpec() (*spec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// readRecords reads a result set: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method); one value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := p * float64(n+1)
		j := int(m)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// runCompare prints, per workload and end-to-end metric, each side's
// median and quartiles, the seed-paired runs B won, and a verdict:
// "unresolved" when A's own spread exceeds the bound (unless every B run
// beats every A run), "regression" when B's median is worse by more than
// the bound, "gain" when B wins 9/10 of the pairs and the medians differ
// by more than A's spread, else "within bound".
func runCompare(out io.Writer, pathA, pathB string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	type key struct {
		workload string
		seed     int64
	}
	index := func(rs []record) map[key]record {
		m := map[key]record{}
		for _, r := range rs {
			if r.Trace == 0 {
				m[key{r.Workload, r.Seed}] = r
			}
		}
		return m
	}
	ia, ib := index(a), index(b)
	regressions := 0
	fmt.Fprintf(out, "%-18s %-18s %26s %26s %7s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			var va, vb []float64
			wins, pairs := 0, 0
			for k, ra := range ia {
				if k.workload != w.name {
					continue
				}
				x := ra.Result.Metrics[m.Name].Value
				va = append(va, x)
				if rb, ok := ib[k]; ok {
					y := rb.Result.Metrics[m.Name].Value
					pairs++
					if better(m.Better, y, x) {
						wins++
					}
				}
			}
			for k, rb := range ib {
				if k.workload == w.name {
					vb = append(vb, rb.Result.Metrics[m.Name].Value)
				}
			}
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spread := (a3 - a1) / a2
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case spread > m.Bound && !allBetter(m.Better, vb, va):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regression"
				regressions++
			case pairs > 0 && 10*wins >= 9*pairs && -worse*a2 > a3-a1:
				verdict = "gain"
			}
			fmt.Fprintf(out, "%-18s %-18s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %3d/%-3d  %s (%+.1f%%, bound %.0f%%, A spread %.1f%%)\n",
				w.name, m.Name, a2, a1, a3, b2, b1, b3, wins, pairs, verdict, 100*worse, 100*m.Bound, 100*spread)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	return nil
}

// better reports whether x beats y in the metric's direction.
func better(direction string, x, y float64) bool {
	if direction == "higher" {
		return x > y
	}
	return x < y
}

// allBetter reports whether every value of xs beats every value of ys.
func allBetter(direction string, xs, ys []float64) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(direction, x, y) {
				return false
			}
		}
	}
	return true
}
