package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steady runs every workload -runs times, each run a separate process
// with its own seed, alternating the workload order from one round to
// the next, and prints each end-to-end metric's median, quartiles,
// minimum and maximum, and its spread (quartile distance over median).
// The bounds in BENCHMARK.json are set from its output.
func steady(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	seconds := fs.Float64("seconds", 10, "length of each run's timed phase")
	seed := fs.Int64("seed", 1, "seed of the first round; round i uses seed+i")
	dir := fs.String("dir", ".bench_build", "scratch directory passed to each run")
	if err := fs.Parse(args); err != nil || *runs < 1 {
		return exitError
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return exitError
	}
	results := map[string][]report{}
	for i := 0; i < *runs; i++ {
		order := append([]string(nil), workloadNames...)
		if i%2 == 1 {
			for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
				order[l], order[r] = order[r], order[l]
			}
		}
		for _, n := range order {
			cmd := exec.Command(exe, "-workload", n, "-seed", strconv.FormatInt(*seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", "0", "-dir", *dir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			rep, perr := lastReport(out)
			if err != nil || perr != nil || !rep.Correct {
				fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: exit %v, %v\n%s", n, *seed+int64(i), err, perr, out)
				return exitCheck
			}
			results[n] = append(results[n], rep)
			fmt.Fprintf(w, "round %d %-12s seed %d done\n", i, n, *seed+int64(i))
		}
	}
	for _, n := range workloadNames {
		printSteady(w, n, results[n])
	}
	return 0
}

// lastReport parses the JSON result on the last line of a run's output.
func lastReport(out []byte) (report, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return rep, fmt.Errorf("no result line: %w", err)
	}
	return rep, nil
}

func printSteady(w io.Writer, name string, reps []report) {
	fmt.Fprintf(w, "\n%s: %d runs\n", name, len(reps))
	fmt.Fprintf(w, "  %-14s %12s %12s %12s %12s %12s %8s %s\n", "metric", "median", "q1", "q3", "min", "max", "spread", "unit")
	var metrics []string
	for m := range reps[0].Metrics {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	for _, m := range metrics {
		var vs []float64
		for _, rep := range reps {
			vs = append(vs, rep.Metrics[m].Value)
		}
		med := median(vs)
		q1, q3 := quartiles(vs)
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		fmt.Fprintf(w, "  %-14s %12.6g %12.6g %12.6g %12.6g %12.6g %7.1f%% %s\n",
			m, med, q1, q3, sorted[0], sorted[len(sorted)-1], 100*(q3-q1)/med, reps[0].Metrics[m].Unit)
	}
	var failed int64
	for _, rep := range reps {
		failed += rep.Failed
	}
	fmt.Fprintf(w, "  failed operations: %d over all runs\n", failed)
}
