// Command perfbench is the repository's end-to-end benchmark. It
// measures three workloads from outside the program, through the
// public functions of the packages it measures and the counters the
// program already exposes:
//
//	sweep-paper  the paired Section-4 acceptance-ratio sweep, as
//	             spexp -overheads both runs it with all nine partitioners
//	admit-read   read-only admission traffic against seeded admitd
//	             sessions over a loopback socket
//	admit-write  durable admit/split/remove churn against admitd with
//	             a data directory and the group fsync policy
//
// A run prints every metric by name and unit and, as its last line,
// one JSON object with the keys correct, attempted, failed and
// metrics. With -trace 0 the metrics are the end-to-end ones of the
// named workload; with -trace 1 the run executes the traced layer
// suites of all three workloads, the named one first, and prints
// every per-layer metric. The command exits 1 when a correctness
// check fails and 2 when it cannot run at all. See README.md.
//
//	perfbench -workload admit-read -seed 3 -seconds 20 -trace 0
//	perfbench steady -runs 10 -seconds 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart anchors setup_s: the first set-up of a run is timed
// from process start.
var processStart = startClock(runtime.GOMAXPROCS(0))

const (
	exitCheck = 1
	exitError = 2
)

// workloadNames lists the workloads in their canonical order.
var workloadNames = []string{"sweep-paper", "admit-read", "admit-write"}

// suite is one workload: its untimed-then-timed end-to-end run and
// its traced layer suite.
type suite struct {
	run   func(o options, r *report) error
	trace func(o options, r *report) error
}

var suites = map[string]suite{
	"sweep-paper": {run: runSweep, trace: traceSweep},
	"admit-read":  {run: runRead, trace: traceRead},
	"admit-write": {run: runWrite, trace: traceWrite},
}

// options is one run's configuration.
type options struct {
	seed    int64
	seconds float64
	// dir holds the run's scratch files (admit-write data
	// directories); it is created when missing.
	dir  string
	size size
}

// size fixes the amount of work per operation and per phase. The
// benchmark always runs paperSize; tests shrink it.
type size struct {
	// setsPerPoint and grid size one sweep; warmSets is the sets per
	// point of the warm-up sweep pair, sampleSets the sets per grid
	// point that the sweep correctness sample checks.
	setsPerPoint int
	grid         []float64
	warmSets     int
	sampleSets   int
	// setups is how many times a run sets up its workload; setup_s
	// is the median.
	setups int
	// warmOps is the number of ops, in whole rounds, each service
	// client runs before timing starts.
	warmOps int
	// phase is the length of each traced service phase.
	phase time.Duration
}

func paperSize() size {
	return size{
		setsPerPoint: 200,
		grid:         paperGrid(),
		warmSets:     20,
		sampleSets:   2,
		setups:       5,
		warmOps:      4000,
		phase:        3 * time.Second,
	}
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's result. Failures are correctness-check
// violations; Failed counts operations that failed: requests that
// returned an error, and known simulator misses (knownMisses).
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
	notes    []string
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

// set records a metric. A value that is not finite is a failed check:
// it means a measurement divided by an empty span or count.
func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.failf("metric %s is not finite (%v)", name, v)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// failf records a correctness-check violation.
func (r *report) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// notef records a line for the human-readable part of the output.
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints the notes, every metric by name and unit, the failures,
// and the JSON result as the last line.
func (r *report) write(w io.Writer) error {
	r.Correct = len(r.failures) == 0
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	const maxShown = 20
	for i, f := range r.failures {
		if i == maxShown {
			fmt.Fprintf(w, "CHECK FAILED: ... and %d more\n", len(r.failures)-maxShown)
			break
		}
		fmt.Fprintln(w, "CHECK FAILED:", f)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:], os.Stdout))
	}
	os.Exit(bench(os.Args[1:], os.Stdout))
}

// bench is one benchmark run; it returns the process exit code.
func bench(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same op sequence")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer suites instead of the end-to-end run")
	dir := fs.String("dir", ".bench_build", "scratch directory for data directories")
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if _, ok := suites[*workload]; !ok || fs.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames, "|"))
		return exitError
	}
	o := options{seed: *seed, seconds: *seconds, dir: *dir, size: paperSize()}
	r := newReport()
	if err := runWorkload(*workload, *traced == 1, o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return exitError
	}
	if err := r.write(w); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return exitError
	}
	if !r.Correct {
		return exitCheck
	}
	return 0
}

// runWorkload runs the named workload's end-to-end run, or with traced
// set, every traced suite with the named workload's first.
func runWorkload(name string, traced bool, o options, r *report) error {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	if !traced {
		if err := suites[name].run(o, r); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.set("peak_rss_mb", "MiB", peakRSSMiB())
		return nil
	}
	order := []string{name}
	for _, n := range workloadNames {
		if n != name {
			order = append(order, n)
		}
	}
	for _, n := range order {
		if err := suites[n].trace(o, r); err != nil {
			return fmt.Errorf("%s (traced): %w", n, err)
		}
	}
	return nil
}
