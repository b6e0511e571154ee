package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/overhead"
	"repro/internal/partition"
	"repro/internal/task"
	"repro/internal/taskgen"
)

// The sweep-paper configuration: spexp -overheads both with every
// partitioner, 4 cores and 16 tasks per set.
const (
	sweepCores = 4
	sweepTasks = 16
)

var algNames = []string{"fpts", "ffd", "wfd", "bfd", "spa1", "spa2", "edfwm", "edfffd", "edfwfd"}

func paperGrid() []float64 { return experiment.DefaultGrid(sweepCores) }

func sweepAlgs() []partition.Algorithm {
	algs := make([]partition.Algorithm, len(algNames))
	for i, n := range algNames {
		a, err := partition.ByName(n)
		if err != nil {
			panic(err) // algNames is a constant list
		}
		algs[i] = a
	}
	return algs
}

// sweepModel is one of the two overhead models a paired sweep runs.
type sweepModel struct {
	name  string
	model *overhead.Model
}

// pairModels returns fresh zero and paper models. The analysis keys
// its cost caches by model pointer, so one pair of models is shared by
// every sweep of a run, as one spexp invocation shares them.
func pairModels() [2]sweepModel {
	return [2]sweepModel{{"zero", overhead.Zero()}, {"paper", overhead.PaperModel()}}
}

// pair is one paired sweep: the same grid under the zero and the paper
// overhead models, sharing one set cache.
type pair struct {
	res [2]*experiment.Results
	// elapsed is the pair's wall time, run its run time (clock).
	elapsed, run time.Duration
}

// runPair runs one paired sweep with the given worker count (0 means
// GOMAXPROCS, the sweep's default), the algorithms of each model's
// sweep given by algs, its sets generated into or read from cache.
func runPair(models [2]sweepModel, algs [2][]partition.Algorithm, seed int64, sets int, grid []float64, workers int, cache *taskgen.SetCache) pair {
	cfg := experiment.Config{
		Cores:        sweepCores,
		Tasks:        sweepTasks,
		SetsPerPoint: sets,
		Utilizations: grid,
		Seed:         seed,
		Workers:      workers,
		SetCache:     cache,
	}
	var p pair
	busy := workers
	if busy == 0 {
		busy = runtime.GOMAXPROCS(0)
	}
	c := startClock(busy)
	for i, m := range models {
		cfg.Model, cfg.Algorithms = m.model, algs[i]
		p.res[i] = experiment.RunContext(context.Background(), cfg)
		// The results keep their config, and with it the set cache;
		// drop it so that kept results do not hold every pair's sets.
		p.res[i].Config.SetCache = nil
	}
	p.elapsed, p.run = c.stop()
	return p
}

// plainPair runs one paired sweep of every partitioner.
func plainPair(models [2]sweepModel, seed int64, sets int, grid []float64) pair {
	algs := sweepAlgs()
	return runPair(models, [2][]partition.Algorithm{algs, algs}, seed, sets, grid, 0, taskgen.NewSetCache())
}

// attemptsPerPair is the number of partition attempts in one pair:
// one per task set, partitioner and overhead model.
func attemptsPerPair(sets int, grid []float64) int64 {
	return int64(2 * sets * len(grid) * len(algNames))
}

// checkPair checks that every cell of both sweeps holds exactly the
// sets per point and that neither sweep was canceled.
func checkPair(r *report, k int, p pair, sets int) {
	for i, res := range p.res {
		if res.Canceled {
			r.failf("pair %d sweep %d: canceled", k, i)
		}
		if len(res.Series) != len(algNames) {
			r.failf("pair %d sweep %d: %d series, want %d", k, i, len(res.Series), len(algNames))
		}
		for _, s := range res.Series {
			for _, pt := range s.Points {
				if pt.Total != sets {
					r.failf("pair %d sweep %d %s U=%.3f: total %d, want %d", k, i, s.Algorithm, pt.TotalUtilization, pt.Total, sets)
				}
			}
		}
	}
}

// The timed phase cycles through a fixed pool of sweep seeds, starting
// at an offset taken from the workload seed. The cost of a paper-size
// pair depends on its seed by about 10% (a few expensive task sets
// dominate), so runs that each drew fresh seeds would differ by their
// inputs more than by the code; a run of pool-many pairs covers the
// whole pool whatever its seed.
const (
	seedPool     = 8
	seedPoolBase = 0x5eed
)

// pairSeed is the sweep seed of the run's k-th pair.
func pairSeed(seed int64, k int) int64 {
	return mix(seedPoolBase, int((uint64(seed)+uint64(k))%seedPool))
}

// warmSeed seeds the warm-up pair. It does not depend on the workload
// seed, so every run's set-up does the same work and setup_s compares
// across seeds.
const warmSeed = 1

// sweepSetup is one set-up of the sweep workload: a warm-up pair at
// reduced size, so code, pools and the heap are warm before timing.
func sweepSetup(o options, models [2]sweepModel) {
	plainPair(models, warmSeed, o.size.warmSets, o.size.grid)
}

// timeSetups sets the workload up o.size.setups times and returns the
// median set-up run time (clock), the first timed from process start.
// Every set-up but the last is torn down, untimed, before the next.
func timeSetups(o options, setup func() (teardown func() error, err error)) (float64, error) {
	var ds []float64
	for i := 0; i < o.size.setups; i++ {
		c := startClock(runtime.GOMAXPROCS(0))
		if i == 0 {
			c = processStart
		}
		teardown, err := setup()
		if err != nil {
			return 0, err
		}
		_, run := c.stop()
		ds = append(ds, run.Seconds())
		if i < o.size.setups-1 {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
	}
	return median(ds), nil
}

// runSweep is the sweep-paper end-to-end run: rounds back to back until
// the timed phase is over. A round is one paired sweep, with the next
// seed of the pool, and the simulator check (simulateSample); only the
// pairs are timed.
func runSweep(o options, r *report) error {
	models := pairModels()
	setup, err := timeSetups(o, func() (func() error, error) {
		sweepSetup(o, models)
		return func() error { return nil }, nil
	})
	if err != nil {
		return err
	}
	sets, grid := o.size.setsPerPoint, o.size.grid
	per := attemptsPerPair(sets, grid)
	lat := &attemptLatency{}
	var algs []partition.Algorithm
	for _, a := range sweepAlgs() {
		algs = append(algs, timedAlg{Algorithm: a, record: lat.add})
	}
	var pairs []pair
	var rates, p50s, p90s, pairS, stolen []float64
	var timed time.Duration
	var sim simTiming
	for k := 0; k == 0 || timed.Seconds() < o.seconds; k++ {
		lat.h = latHist{}
		p := runPair(models, [2][]partition.Algorithm{algs, algs}, pairSeed(o.seed, k), sets, grid, 0, taskgen.NewSetCache())
		timed += p.elapsed
		pairs = append(pairs, p)
		rates = append(rates, float64(per)/p.run.Seconds())
		p50s = append(p50s, lat.h.quantileUS(0.5))
		p90s = append(p90s, lat.h.quantileUS(0.9))
		pairS = append(pairS, p.elapsed.Seconds())
		stolen = append(stolen, 1-p.run.Seconds()/p.elapsed.Seconds())
		r.Attempted += per
		simulateSample(o, r, &sim)
	}
	r.set("setup_s", "s", setup)
	r.set("ops_per_s", "1/s", median(rates))
	r.set("op_p50_us", "us", median(p50s))
	r.set("op_p90_us", "us", median(p90s))
	r.notef("sweep-paper: %d rounds of %d partition attempts and %d simulations (%d known misses)",
		len(pairs), per, sim.n/len(pairs), sim.known/len(pairs))
	r.notef("sweep-paper: paired sweep %.3f s median (%.3f-%.3f s), %.1f%% of it stolen (%.1f-%.1f%%)",
		median(pairS), quantile(pairS, 0), quantile(pairS, 1), 100*median(stolen), 100*quantile(stolen, 0), 100*quantile(stolen, 1))

	for k, p := range pairs {
		checkPair(r, k, p, sets)
	}
	checkSweepSample(o, r)
	return nil
}

// sampleAttempt is one partition attempt of a check sample.
type sampleAttempt struct {
	label string
	alg   partition.Algorithm
	m     sweepModel
	set   *task.Set
	a     *task.Assignment
	err   error
}

// forSample partitions the check sample of sample seed s: o.size.sampleSets
// task sets per grid point, generated by the benchmark itself with seed
// mix(s, -2, point, index). Every algorithm partitions every set under
// both models through the arena path, as the sweep calls it, and fn sees
// each attempt.
func forSample(o options, s int64, fn func(at sampleAttempt)) {
	models := pairModels()
	algs := sweepAlgs()
	ar := partition.NewArena()
	var gen *taskgen.Generator
	var set *task.Set
	for ui, u := range o.size.grid {
		for si := 0; si < o.size.sampleSets; si++ {
			cfg := taskgen.Config{N: sweepTasks, TotalUtilization: u, Seed: mix(s, -2, ui, si)}
			if gen == nil {
				gen = taskgen.New(cfg)
			} else {
				gen.Reconfigure(cfg)
			}
			set = gen.NextInto(set)
			for _, m := range models {
				ar.BeginSet()
				for _, alg := range algs {
					a, err := alg.PartitionOpts(set, sweepCores, m.model, partition.Options{Arena: ar})
					fn(sampleAttempt{
						label: fmt.Sprintf("sample %d U=%.3f set %d %s/%s", s, u, si, alg.Name(), m.name),
						alg:   alg, m: m, set: set, a: a, err: err,
					})
				}
			}
		}
	}
}

// checkSweepSample checks the sample of the workload seed: every
// accepted assignment by a check that does not share the partitioner's
// admission code, and that the arena path decides as a plain Partition
// call does. It returns the mean time of one stateless analyzer check
// in microseconds.
func checkSweepSample(o options, r *report) float64 {
	var n int
	var stateless time.Duration
	forSample(o, o.seed, func(at sampleAttempt) {
		if at.err != nil && !errors.Is(at.err, partition.ErrUnschedulable) {
			r.failf("%s: %v", at.label, at.err)
			return
		}
		if at.err == nil {
			t0 := time.Now()
			if checkAccepted(r, at) {
				stateless += time.Since(t0)
				n++
			}
		}
		_, perr := at.alg.Partition(at.set, sweepCores, at.m.model)
		if (at.err == nil) != (perr == nil) {
			r.failf("%s: arena path accepted=%v, plain Partition accepted=%v", at.label, at.err == nil, perr == nil)
		}
	})
	return float64(stateless) / float64(time.Microsecond) / float64(n)
}

// checkAccepted checks one accepted assignment. Under zero overheads
// the partitioned algorithms are checked by textbook tests written
// here; split algorithms, and every algorithm under the paper model, by
// the stateless analyzer of the assignment's policy. It reports whether
// the stateless analyzer ran.
func checkAccepted(r *report, at sampleAttempt) bool {
	a := at.a
	if err := checkCoverage(at.set, a); err != nil {
		r.failf("%s: %v", at.label, err)
		return false
	}
	if a.Policy != at.alg.Policy() {
		r.failf("%s: assignment policy %v, algorithm policy %v", at.label, a.Policy, at.alg.Policy())
	}
	if at.m.model.IsZero() {
		switch at.alg.Name() {
		case partition.FFD.Name(), partition.WFD.Name(), partition.BFD.Name():
			if err := checkRTA(a); err != nil {
				r.failf("%s: %v", at.label, err)
			}
			return false
		case partition.EDFFFD.Name(), partition.EDFWFD.Name():
			if err := checkEDFUtilization(a); err != nil {
				r.failf("%s: %v", at.label, err)
			}
			return false
		}
	}
	if !analysis.ForPolicy(a.Policy).Schedulable(a, at.m.model) {
		r.failf("%s: the stateless %v analyzer rejects the accepted assignment", at.label, a.Policy)
	}
	return true
}

// simSampleSeeds are the sample seeds of the simulator check. Its
// samples do not depend on the workload seed, so that every run
// simulates the same assignments: sched.Run misses a deadline on a few
// accepted assignments (knownMisses), and on samples drawn from the
// workload seed whether a run passed would depend on its seed. These two
// are the samples, among those of seeds 1 to 60, on which the two faults
// behind the misses were found.
var simSampleSeeds = []int64{14, 16}

// knownMisses are the accepted assignments of the simulator samples
// that miss a deadline in sched.Run because of faults in the program
// (the FOUND lines of CHANGES.md). Under zero overheads, SPA1 and SPA2
// accept a set in which one task's first job completes 19 ms after its
// deadline. Under the paper model, the simulator stops one task for
// good. Each is a failed operation in every round; any other miss, or a
// simulator error, fails the run.
var knownMisses = map[string]bool{
	"sample 14 U=2.600 set 0 FP-TS/paper":   true,
	"sample 14 U=2.600 set 0 FFD/paper":     true,
	"sample 14 U=2.600 set 0 BFD/paper":     true,
	"sample 14 U=2.600 set 0 EDF-WM/paper":  true,
	"sample 14 U=2.600 set 0 EDF-FFD/paper": true,
	"sample 16 U=2.700 set 1 SPA1/zero":     true,
	"sample 16 U=2.700 set 1 SPA2/zero":     true,
}

// simTiming accumulates the simulator check's work.
type simTiming struct {
	n, known int
	total    time.Duration
}

// simulateSample is the simulator check, one operation per accepted
// assignment of the simulator samples: sched.Run over a fixed horizon
// must report no deadline miss. It runs in every round of the sweep, so
// that the known misses are the same share of every run's attempted
// operations.
func simulateSample(o options, r *report, st *simTiming) {
	for _, s := range simSampleSeeds {
		forSample(o, s, func(at sampleAttempt) {
			if at.err != nil {
				if !errors.Is(at.err, partition.ErrUnschedulable) {
					r.failf("%s: %v", at.label, at.err)
				}
				return
			}
			t0 := time.Now()
			err := simulate(at.a, at.m.model)
			st.total += time.Since(t0)
			st.n++
			r.Attempted++
			recordMiss(r, st, at.label, err)
		})
	}
}

// recordMiss records the outcome of one simulation: a known miss is a
// failed operation, any other miss a failed check.
func recordMiss(r *report, st *simTiming, label string, err error) {
	switch {
	case err == nil:
	case knownMisses[label]:
		st.known++
		r.Failed++
	default:
		r.failf("%s: %v", label, err)
	}
}

// stage accumulates the traced time of one layer call site.
type stage struct {
	n     int
	total time.Duration
}

func (s *stage) add(d time.Duration) { s.n++; s.total += d }

func (s *stage) meanUS() float64 { return float64(s.total) / float64(time.Microsecond) / float64(s.n) }

// timedAlg times every PartitionOpts call the sweep makes into the
// partitioner it wraps, one partition attempt each, and hands the time
// to record. It is the benchmark's span around the partition layer.
type timedAlg struct {
	partition.Algorithm
	record func(time.Duration)
}

func (t timedAlg) PartitionOpts(s *task.Set, m int, model *overhead.Model, o partition.Options) (*task.Assignment, error) {
	t0 := time.Now()
	a, err := t.Algorithm.PartitionOpts(s, m, model, o)
	t.record(time.Since(t0))
	return a, err
}

// attemptLatency is the latency histogram of a sweep's partition
// attempts, shared by its workers.
type attemptLatency struct {
	mu sync.Mutex
	h  latHist
}

func (l *attemptLatency) add(d time.Duration) {
	l.mu.Lock()
	l.h.add(d)
	l.mu.Unlock()
}

// nullAlg rejects every set at once. A sweep of nullAlgs does all of
// the sweep's own work and none of the partitioners'.
type nullAlg struct{ partition.Algorithm }

func (nullAlg) PartitionOpts(*task.Set, int, *overhead.Model, partition.Options) (*task.Assignment, error) {
	return nil, partition.ErrUnschedulable
}

// timeNextInto is the mean time of Generator.NextInto per set over one
// sweep's grid, generating into a recycled slab.
func timeNextInto(o options, seed int64) float64 {
	var st stage
	var gen *taskgen.Generator
	var set *task.Set
	for ui, u := range o.size.grid {
		for si := 0; si < o.size.setsPerPoint; si++ {
			cfg := taskgen.Config{N: sweepTasks, TotalUtilization: u, Seed: mix(seed, ui, si)}
			if gen == nil {
				gen = taskgen.New(cfg)
			} else {
				gen.Reconfigure(cfg)
			}
			t0 := time.Now()
			set = gen.NextInto(set)
			st.add(time.Since(t0))
		}
	}
	return st.meanUS()
}

// traceSweep is the sweep-paper traced suite. Grid point by grid point,
// over the same sets, it runs a paired sweep four ways: untraced and
// traced at one worker, alternating which goes first so that host drift
// cancels out of their comparison; at the default worker count, which
// gives the speedup and the admission and allocation counters; and at
// one worker with every partitioner replaced by a nullAlg, over a set
// cache that already holds the sets, which is the sweep's own time. The
// traced run wraps every partitioner in a timedAlg.
func traceSweep(o options, r *report) error {
	models := pairModels()
	sweepSetup(o, models)
	sets := o.size.setsPerPoint
	per := attemptsPerPair(sets, o.size.grid)
	seed := mix(o.seed, 0)

	plain := sweepAlgs()
	var timed, null [2][]partition.Algorithm
	var calls [2][]stage
	for mi := range models {
		calls[mi] = make([]stage, len(plain))
		for ai, a := range plain {
			// The traced sweep runs at one worker, so a stage needs no
			// synchronization.
			timed[mi] = append(timed[mi], timedAlg{Algorithm: a, record: calls[mi][ai].add})
			null[mi] = append(null[mi], nullAlg{a})
		}
	}
	// The wall time of the traced pairs is kept apart, to share the
	// steal out over the partition calls timed inside them.
	var serial, traced, tracedWall, parallel, self time.Duration
	var adm analysis.AdmissionStats
	var mallocs, gcs uint64
	for ui, u := range o.size.grid {
		grid := []float64{u}
		runA := func() {
			p := runPair(models, [2][]partition.Algorithm{plain, plain}, seed, sets, grid, 1, taskgen.NewSetCache())
			serial += p.run
			checkPair(r, 3*ui, p, sets)
		}
		runB := func() {
			p := runPair(models, timed, seed, sets, grid, 1, taskgen.NewSetCache())
			traced += p.run
			tracedWall += p.elapsed
			checkPair(r, 3*ui+1, p, sets)
		}
		if ui%2 == 0 {
			runA()
			runB()
		} else {
			runB()
			runA()
		}
		mem := startMem()
		p := plainPair(models, seed, sets, grid)
		m, g := mem.stop()
		mallocs, gcs = mallocs+m, gcs+g
		parallel += p.run
		adm = adm.Add(p.res[0].Admission).Add(p.res[1].Admission)
		checkPair(r, 3*ui+2, p, sets)

		cache := taskgen.NewSetCache()
		runPair(models, null, seed, sets, grid, 1, cache)
		self += runPair(models, null, seed, sets, grid, 1, cache).run
	}
	r.Attempted += 3 * per

	nextUS := timeNextInto(o, mix(o.seed, 1))
	r.set("taskgen.next_us", "us", nextUS)
	var part time.Duration
	for mi, m := range models {
		for ai, name := range algNames {
			r.set(fmt.Sprintf("partition.%s.%s.call_us", name, m.name), "us", calls[mi][ai].meanUS())
			part += calls[mi][ai].total
		}
	}
	r.set("analysis.probes_per_partition", "count", float64(adm.Probes)/float64(per))
	r.set("analysis.verdict_hit_ratio", "ratio", float64(adm.VerdictHits)/float64(adm.CoreTests))
	r.set("analysis.fp_iters_per_solve", "count", float64(adm.FPIterations)/float64(adm.FPSolves))
	r.set("analysis.warm_start_ratio", "ratio", float64(adm.WarmStarts)/float64(adm.FPSolves))

	r.set("experiment.serial_s", "s", serial.Seconds())
	r.set("experiment.self_s", "s", self.Seconds())
	r.set("experiment.speedup", "x", serial.Seconds()/parallel.Seconds())
	r.set("go.allocs_per_partition", "count", float64(mallocs)/float64(per))
	r.set("go.gc_cycles", "count", float64(gcs))

	untracedRate, tracedRate := float64(per)/serial.Seconds(), float64(per)/traced.Seconds()
	r.set("sweep-paper.trace_overhead_ops_per_s", "1/s", tracedRate-untracedRate)
	r.notef("sweep-paper trace overhead: traced %.0f/s - untraced %.0f/s at one worker = %+.0f/s", tracedRate, untracedRate, tracedRate-untracedRate)

	// The three stages are measured apart: taskgen by timing NextInto,
	// partition inside the traced sweep, the sweep's own work by the
	// null sweep. A pair generates each set once (the paper sweep reads
	// it from the set cache), so the taskgen stage is one NextInto per
	// set. The partition calls are timed by the wall clock; the steal
	// of the traced pairs is taken off them in proportion.
	gen := nextUS * float64(sets*len(o.size.grid)) / 1e6
	partRun := part.Seconds() * traced.Seconds() / tracedWall.Seconds()
	sum := gen + partRun + self.Seconds()
	gap := math.Abs(sum-serial.Seconds()) / serial.Seconds()
	r.set("experiment.stage_budget_gap", "ratio", gap)
	r.notef("sweep-paper stage budget: taskgen %.3fs + partition %.3fs + experiment self %.3fs = %.3fs vs serial %.3fs (gap %.1f%%, limit 10%%)",
		gen, partRun, self.Seconds(), sum, serial.Seconds(), 100*gap)
	if gap > 0.10 {
		r.failf("sweep-paper stage budget: %.3fs vs serial %.3fs, gap %.1f%% > 10%%", sum, serial.Seconds(), 100*gap)
	}

	r.set("analysis.stateless_check_us", "us", checkSweepSample(o, r))
	var sim simTiming
	simulateSample(o, r, &sim)
	r.set("sched.sim_ms", "ms", float64(sim.total)/float64(time.Millisecond)/float64(sim.n))
	return nil
}
