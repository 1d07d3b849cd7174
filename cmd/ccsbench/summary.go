package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// runSummary (-summary) prints one table over the committed BENCH_E*.json
// trajectories: per experiment, the CI gate, the measured headline number,
// and its margin against the gate. It reads whatever files are present in
// dir and marks the rest "not found" — the point is a single place (used
// by the bench CI logs) to see the whole performance trajectory instead
// of grepping seven JSON files.
func runSummary(w io.Writer, dir string) error {
	type headline struct {
		file    string
		title   string
		gate    string
		measure func(map[string]any) (value float64, detail string, err error)
		// higherBetter: the gate is a floor (speedups); otherwise a
		// ceiling (E22's overhead, E23's pair count), or, with neither,
		// a count that must be zero (E20's warm derivations).
		floor float64
		ceil  float64
		// unit follows the measured value: "x" for ratios, or a count's.
		unit string
	}

	// rowFloat pulls a float field out of a row map (JSON numbers decode
	// as float64).
	rowFloat := func(row any, key string) float64 {
		m, ok := row.(map[string]any)
		if !ok {
			return 0
		}
		v, _ := m[key].(float64)
		return v
	}
	rowStr := func(row any, key string) string {
		m, ok := row.(map[string]any)
		if !ok {
			return ""
		}
		s, _ := m[key].(string)
		return s
	}
	lastRowSpeedup := func(doc map[string]any) (float64, string, error) {
		rows, _ := doc["rows"].([]any)
		if len(rows) == 0 {
			return 0, "", fmt.Errorf("no rows")
		}
		last := rows[len(rows)-1]
		return rowFloat(last, "speedup"), "largest entry", nil
	}
	bestRowSpeedup := func(doc map[string]any) (float64, string, error) {
		rows, _ := doc["rows"].([]any)
		if len(rows) == 0 {
			return 0, "", fmt.Errorf("no rows")
		}
		best, detail := 0.0, ""
		for _, row := range rows {
			if s := rowFloat(row, "speedup"); s > best {
				best, detail = s, rowStr(row, "entry")
			}
		}
		return best, detail, nil
	}
	experiments := []headline{
		{file: "BENCH_E16.json", title: "CSR kernel vs edge list", gate: ">= 1.5x",
			measure: lastRowSpeedup, floor: 1.5},
		{file: "BENCH_E17.json", title: "minimize-then-compose vs flat", gate: ">= 2x",
			measure: lastRowSpeedup, floor: 2},
		{file: "BENCH_E18.json", title: "on-the-fly game vs mtc", gate: ">= 2x",
			measure: bestRowSpeedup, floor: 2},
		{file: "BENCH_E19.json", title: "determinized otf vs mtc", gate: ">= 2x",
			measure: bestRowSpeedup, floor: 2},
		{file: "BENCH_E20.json", title: "store: warm restart derivations", gate: "0 derived",
			// quotients and ≈-partitions the warm run derived instead of
			// reading them from the store
			measure: func(doc map[string]any) (float64, string, error) {
				warm, ok := doc["warm_derived"].(map[string]any)
				if !ok {
					return 0, "", fmt.Errorf("no warm_derived")
				}
				store, _ := doc["warm_store"].(map[string]any)
				return rowFloat(warm, "quotients") + rowFloat(warm, "weak_partitions"),
					fmt.Sprintf("%.0f store hits, cold/warm %.1fx", rowFloat(store, "hits"), rowFloat(doc, "total_speedup")), nil
			}, unit: " derived"},
		{file: "BENCH_E22.json", title: "observability overhead", gate: "<= 1.05x",
			measure: func(doc map[string]any) (float64, string, error) {
				v, ok := doc["overhead"].(float64)
				if !ok {
					return 0, "", fmt.Errorf("no overhead")
				}
				detail, _ := doc["entry"].(string)
				return v, detail, nil
			}, ceil: 1.05},
		{file: "BENCH_E23.json", title: "sync-vector quorum: otf pairs", gate: fmt.Sprintf("<=%d pairs", e23MaxPairs),
			// the game's pairs on the starved quorum, against the states
			// of MTC's product
			measure: func(doc map[string]any) (float64, string, error) {
				rows, _ := doc["rows"].([]any)
				for _, row := range rows {
					if e := rowStr(row, "entry"); strings.Contains(e, "overfaulty") {
						return rowFloat(row, "otf_pairs"), fmt.Sprintf("%s, mtc product %.0f states", e, rowFloat(row, "mtc_product_states")), nil
					}
				}
				return 0, "", fmt.Errorf("no overfaulty row")
			}, ceil: e23MaxPairs, unit: " pairs"},
	}

	fmt.Fprintf(w, "%-15s %-34s %-9s %9s %7s  %s\n",
		"trajectory", "experiment", "gate", "measured", "margin", "detail")
	for _, h := range experiments {
		path := filepath.Join(dir, h.file)
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(w, "%-15s %-34s %-9s %9s\n", h.file, h.title, h.gate, "not found")
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("%s: %w", h.file, err)
		}
		value, detail, err := h.measure(doc)
		if err != nil {
			return fmt.Errorf("%s: %w", h.file, err)
		}
		var ok bool
		margin := "-"
		switch {
		case h.floor > 0:
			ok = value >= h.floor
			margin = fmt.Sprintf("%.2fx", value/h.floor)
		case h.ceil > 0:
			ok = value <= h.ceil
			margin = fmt.Sprintf("%.2fx", h.ceil/value)
		default:
			ok = value == 0
		}
		status := ""
		if !ok {
			status = "  << BELOW GATE"
		}
		measured := fmt.Sprintf("%.2fx", value)
		if h.unit != "" {
			measured = fmt.Sprintf("%.0f%s", value, h.unit)
		}
		fmt.Fprintf(w, "%-15s %-34s %-9s %9s %7s  %s%s\n",
			h.file, h.title, h.gate, measured, margin, detail, status)
	}
	return nil
}
