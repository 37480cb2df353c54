// Command perfbench is trustd's benchmark. It generates the Medium
// community and its event log plus seeded request and ingest streams over
// it, boots trustd's own server and router packages in-process behind
// loopback HTTP listeners, drives one workload for a fixed time, checks
// the answers against the repository's bitwise contracts, and prints every
// metric by name with its unit. Its last line of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also times the calls into each layer and reports the per-layer ones.
// BENCHMARK.json at the repository root describes the workloads and
// metrics. Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hot-reads --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// options are one run's arguments.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// work is the run's scratch directory (event log, traces), inside the
	// checkout.
	work string
	// traceDir receives the traced run's spans.
	traceDir string
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// report accumulates one run's outcome.
type report struct {
	attempted int
	failed    int
	problems  []string
	e2e       []metric
	layers    []metric
}

// check counts one correctness check, failing it with the message when ok
// is false.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// problem records a failure that is not one attempted operation, such as
// a backlog: the run is not correct.
func (r *report) problem(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) e2eMetric(name, unit string, v float64) {
	r.e2e = append(r.e2e, metric{name, unit, v})
}

func (r *report) layer(name, unit string, v float64) {
	r.layers = append(r.layers, metric{name, unit, v})
}

var workloads = map[string]func(*options, *report) error{
	"hot-reads":      runHotReads,
	"cold-propagate": runColdPropagate,
	"ingest-mixed":   runIngestMixed,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: hot-reads, cold-propagate or ingest-mixed")
	seed := fs.Uint64("seed", 1, "seed of the source orders, request sequences and ingest batches")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 also runs a traced phase and reports per-layer metrics")
	root := fs.String("root", ".", "checkout root; scratch files go under its .bench_build directory")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (hot-reads, cold-propagate, ingest-mixed)", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	base := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	opts := &options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		work:     work,
		traceDir: filepath.Join(base, "traces"),
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d nproc=%d go=%s commit=%s\n",
		opts.workload, opts.seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())
	rep := &report{}
	if err := runWorkload(opts, rep); err != nil {
		return err
	}
	for _, p := range rep.problems {
		fmt.Println("# FAILED:", p)
	}
	metrics := rep.e2e
	if opts.trace {
		for _, m := range rep.e2e {
			fmt.Printf("# untraced %s = %.6g %s\n", m.name, m.value, m.unit)
		}
		metrics = rep.layers
	} else {
		for _, m := range rep.e2e {
			fmt.Printf("# %s = %.6g %s\n", m.name, m.value, m.unit)
		}
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range metrics {
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// commit returns the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty, _ = strconv.ParseBool(s.Value)
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}
