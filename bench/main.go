// Command bench is the repository benchmark: four workloads driven through
// Checker.Do and `ccs serve`, each a closed loop from one process, with
// every verdict checked against an answer known by construction.
//
// One workload, as the command in BENCHMARK.json runs it:
//
//	bench --workload pair-cold --seed 1 --seconds 20 --trace 0
//
// prints a summary and, as its last line, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Without --workload it
// runs every workload untraced and traced, each in a child process of its
// own, and prints one JSON record per run. With -compare A B it compares
// two files of such records against the bounds in BENCHMARK.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// setupReps is how many times a run constructs and warms its target; the
// last construction serves the measured phase and setup_s is the median.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run in a result set: what the all-workloads mode prints
// and -compare reads.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	duration time.Duration // measured phase; seconds unless a test sets it
	trace    int
	scale    float64 // input pool size; below 1 in the unit test
	workdir  string  // parent of the run's artifact stores
}

// workdir holds the artifact stores of the network-mtc-store runs, under
// the build directory the repository ignores.
const workdir = ".bench_build/work"

func main() {
	var cfg config
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&cfg.trace, "trace", 0, "1 traces every other block and prints the per-layer metrics")
	flag.BoolVar(&compare, "compare", false, "compare two result-set files: -compare A.jsonl B.jsonl")
	flag.Parse()
	cfg.duration = time.Duration(cfg.seconds) * time.Second
	cfg.scale, cfg.workdir = 1, workdir

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two result-set files")
			break
		}
		err = runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
	case cfg.trace != 0 && cfg.trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1")
	case cfg.workload == "":
		err = runAll(os.Stdout, cfg)
	default:
		var res result
		res, err = runWorkload(os.Stdout, cfg)
		if err == nil {
			err = printResult(os.Stdout, res)
		}
		if err == nil && !res.Correct {
			err = fmt.Errorf("wrong verdicts")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func printResult(w io.Writer, res result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runWorkload generates the inputs, sets up the target setupReps times,
// measures for cfg.seconds and returns the metrics, printing a summary.
func runWorkload(out io.Writer, cfg config) (result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return result{}, err
	}
	pool := w.pool(rand.New(rand.NewSource(cfg.seed)), cfg.scale)
	if err := encodeBodies(pool); err != nil {
		return result{}, err
	}
	work := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(work)

	var t target
	setup := make([]float64, setupReps)
	for k := range setup {
		if t != nil {
			if err := t.close(); err != nil {
				return result{}, err
			}
		}
		dir := filepath.Join(work, "setup-"+strconv.Itoa(k))
		if err := freshDir(dir); err != nil {
			return result{}, err
		}
		t0 := time.Now()
		if t, err = w.start(w, pool, dir); err != nil {
			return result{}, err
		}
		setup[k] = time.Since(t0).Seconds()
	}

	traced := cfg.trace == 1
	rs := measure(t, pool, w.clients, cfg.duration, traced)
	for _, e := range rs.errs {
		fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, e)
	}
	res := result{Correct: rs.wrong == 0, Attempted: rs.attempted, Failed: rs.failed + rs.wrong}
	defs, values := endToEnd, endToEndMetrics(rs, setup)
	if traced {
		storeDir := ""
		if st, ok := t.(storeTarget); ok {
			storeDir = st.dir
		}
		direct, err := directTimings(pool, rs.firstReps[:min(rs.attempted, len(pool))], storeDir)
		if err != nil {
			return result{}, err
		}
		defs, values = perLayer, perLayerMetrics(rs, direct)
	}
	if err := t.close(); err != nil {
		return result{}, err
	}
	res.Metrics = map[string]metric{}
	fmt.Fprintf(out, "workload %s  seed %d  trace %d  clients %d  GOMAXPROCS %d  pool %d  samples %d (traced %d)  failed %d  wrong %d\n",
		w.name, cfg.seed, cfg.trace, w.clients, runtime.GOMAXPROCS(0), len(pool),
		len(rs.lat)+len(rs.latTraced), len(rs.latTraced), rs.failed, rs.wrong)
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	return res, nil
}

// runAll runs every workload untraced and then traced, each in a child
// process so heap, RSS and caches are the workload's own, and prints one
// record per run.
func runAll(out io.Writer, cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			cmd := exec.Command(self,
				"-workload", w.name,
				"-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.Itoa(cfg.seconds),
				"-trace", strconv.Itoa(trace))
			var stdout bytes.Buffer
			cmd.Stdout = io.MultiWriter(&stdout, os.Stderr)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			rec := record{Workload: w.name, Seed: cfg.seed, Trace: trace}
			if err := json.Unmarshal(lastLine(stdout.Bytes()), &rec.Result); err != nil {
				return fmt.Errorf("%s: no result (%v, %v)", w.name, runErr, err)
			}
			if runErr != nil || !rec.Result.Correct || rec.Result.Failed > 0 {
				bad++
			}
			data, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s\n", data)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs failed or gave wrong verdicts", bad)
	}
	return nil
}

// lastLine returns the last non-empty line of data.
func lastLine(data []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}
