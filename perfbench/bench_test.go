package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro/api"
	"repro/internal/partition"
	"repro/internal/task"
	"repro/internal/timeq"
)

func tinyOptions(t *testing.T) options {
	return options{
		seed:    7,
		seconds: 0.05,
		dir:     t.TempDir(),
		size: size{
			setsPerPoint: 2,
			grid:         paperGrid()[10:13],
			warmSets:     1,
			sampleSets:   1,
			setups:       2,
			warmOps:      1,
			phase:        50 * time.Millisecond,
		},
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer []string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	return e2e, layer
}

func names(r *report) []string {
	var out []string
	for n := range r.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func checkReport(t *testing.T, label string, r *report, want []string, failed int64) {
	t.Helper()
	if len(r.failures) > 0 || r.Failed != failed || r.Attempted == 0 {
		t.Errorf("%s: attempted %d, failed %d, failures %v", label, r.Attempted, r.Failed, r.failures)
	}
	if got := names(r); len(want) > 0 && !equal(got, want) {
		t.Errorf("%s: metrics %v, BENCHMARK.json declares %v", label, got, want)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsTiny runs every workload's end-to-end run and traced
// suite at a tiny size: each passes its checks and prints exactly the
// metrics BENCHMARK.json declares.
func TestWorkloadsTiny(t *testing.T) {
	e2e, layer := declared(t)
	traced := newReport()
	for _, name := range workloadNames {
		o := tinyOptions(t)
		r := newReport()
		if err := runWorkload(name, false, o, r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkReport(t, name, r, e2e, 0)
		if name == "sweep-paper" {
			// The stage budget needs enough work per stage to hold.
			o.size.setsPerPoint, o.size.grid = 50, paperGrid()
		}
		if err := suites[name].trace(o, traced); err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
	}
	// The traced sweep's simulator samples then hold set 0 of sample 14
	// at U=2.600, with its five known misses.
	checkReport(t, "traced", traced, layer, 5)
}

// TestClockRunTime: run time is wall time less steal, never more than
// the wall time and never less than half of it.
func TestClockRunTime(t *testing.T) {
	if stolenSeconds() < 0 {
		t.Fatal("negative steal")
	}
	c := startClock(1)
	time.Sleep(20 * time.Millisecond)
	wall, run := c.stop()
	if run > wall || run < wall/2 {
		t.Fatalf("run time %v outside [%v, %v]", run, wall/2, wall)
	}
}

// TestReadOracleCatchesFlippedVerdict: a verdict that differs from the
// stateless analyzer fails the run.
func TestReadOracleCatchesFlippedVerdict(t *testing.T) {
	p := newReadPlan(3, 1)
	want := readOracle(p)
	if err := checkOracleCoverage(p, want); err != nil {
		t.Fatal(err)
	}
	seen := make([]int64, readSessions*readProbes*(firstFit+1)*(svcCores+1))
	for i, w := range want {
		seen[i*(svcCores+1)+w] = 1
	}
	r := newReport()
	checkVerdicts(r, p, want, seen)
	if len(r.failures) != 0 {
		t.Fatalf("oracle verdicts fail their own check: %v", r.failures)
	}
	flipped := 0
	if want[0] == 0 {
		flipped = 1
	}
	seen[0*(svcCores+1)+want[0]] = 0
	seen[0*(svcCores+1)+flipped] = 1
	checkVerdicts(r, p, want, seen)
	if len(r.failures) != 1 {
		t.Fatalf("flipped verdict: %d failures, want 1", len(r.failures))
	}
}

// TestStateCheckCatchesMissingTask: a state missing one task differs
// from the record.
func TestStateCheckCatchesMissingTask(t *testing.T) {
	p := newReadPlan(3, 1)
	s := p.sessions[0]
	st := api.State{Cores: svcCores, Policy: wirePolicy(s.policy)}
	for _, pl := range s.residents {
		tk := pl.task
		tk.Core = pl.core
		st.Tasks = append(st.Tasks, tk)
	}
	if d := diffState(st, svcCores, s.policy, s.residents); d != "" {
		t.Fatalf("complete state differs: %s", d)
	}
	st.Tasks = st.Tasks[1:]
	if d := diffState(st, svcCores, s.policy, s.residents); d == "" {
		t.Fatal("a state missing one task passes")
	}
}

// TestAssignmentChecksCatchOverload: a hand-built overloaded
// assignment fails every check an accepted assignment goes through.
func TestAssignmentChecksCatchOverload(t *testing.T) {
	ms := timeq.Millisecond
	set := task.NewSet(
		&task.Task{WCET: 6 * ms, Period: 10 * ms},
		&task.Task{WCET: 6 * ms, Period: 10 * ms},
	)
	set.AssignRM()
	a := task.NewAssignment(sweepCores)
	a.Place(set.Tasks[0], 0)
	a.Place(set.Tasks[1], 0)
	if err := checkCoverage(set, a); err != nil {
		t.Fatalf("coverage: %v", err)
	}
	if checkRTA(a) == nil {
		t.Error("response-time test accepts the overload")
	}
	a.Policy = task.EDF
	if checkEDFUtilization(a) == nil {
		t.Error("EDF utilization test accepts the overload")
	}
	for _, alg := range []partition.Algorithm{partition.TS, partition.WM} {
		a.Policy = alg.Policy()
		for _, m := range pairModels() {
			r := newReport()
			at := sampleAttempt{label: "overload", alg: alg, m: m, set: set, a: a}
			if !checkAccepted(r, at) || len(r.failures) != 1 {
				t.Errorf("%s/%s: analyzer failures %v, want 1", alg.Name(), m.name, r.failures)
			}
			err := simulate(a, m.model)
			if err == nil {
				t.Errorf("%s/%s: the simulator reports no miss", alg.Name(), m.name)
			}
			// A miss fails the run unless it is a known one, which is a
			// failed operation instead.
			var st simTiming
			recordMiss(r, &st, at.label, err)
			recordMiss(r, &st, "sample 16 U=2.700 set 1 SPA1/zero", err)
			if len(r.failures) != 2 || r.Failed != 1 || st.known != 1 {
				t.Errorf("%s/%s: failures %v, failed %d; want 2 failures and 1 failed", alg.Name(), m.name, r.failures, r.Failed)
			}
		}
	}
	a.Normal[0] = a.Normal[0][:1]
	if checkCoverage(set, a) == nil {
		t.Error("coverage accepts an assignment missing a task")
	}
}
