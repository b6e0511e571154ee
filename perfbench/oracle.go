package main

import (
	"fmt"
	"math/big"
	"sort"

	"repro/api"
	"repro/internal/overhead"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/timeq"
)

// The checks in this file are written against the task model alone:
// none of them calls the admission contexts, memos or fast paths that
// the benchmark measures.

// simHorizon is the fixed simulated span of the sample's simulator
// runs: at least one job of every task (periods are at most 1s),
// starting from the synchronous critical instant.
const simHorizon = 2 * timeq.Second

// checkCoverage checks that the assignment holds every task of the set
// exactly once, unchanged, and that split budgets sum to the WCET.
func checkCoverage(set *task.Set, a *task.Assignment) error {
	want := make(map[task.ID]task.Task, len(set.Tasks))
	for _, t := range set.Tasks {
		want[t.ID] = *t
	}
	seen := make(map[task.ID]bool, len(set.Tasks))
	note := func(t *task.Task) error {
		w, ok := want[t.ID]
		switch {
		case !ok:
			return fmt.Errorf("assignment holds unknown task %d", t.ID)
		case seen[t.ID]:
			return fmt.Errorf("task %d assigned twice", t.ID)
		case t.WCET != w.WCET || t.Period != w.Period || t.EffectiveDeadline() != w.EffectiveDeadline():
			return fmt.Errorf("task %d changed: %v, generated %v", t.ID, t, &w)
		}
		seen[t.ID] = true
		return nil
	}
	if a.NumCores != sweepCores || len(a.Normal) != a.NumCores {
		return fmt.Errorf("assignment has %d cores (%d lists), want %d", a.NumCores, len(a.Normal), sweepCores)
	}
	for _, ts := range a.Normal {
		for _, t := range ts {
			if err := note(t); err != nil {
				return err
			}
		}
	}
	for _, sp := range a.Splits {
		if err := note(sp.Task); err != nil {
			return err
		}
		var sum timeq.Time
		for _, p := range sp.Parts {
			if p.Core < 0 || p.Core >= a.NumCores || p.Budget <= 0 {
				return fmt.Errorf("split %d: bad part %+v", sp.Task.ID, p)
			}
			sum += p.Budget
		}
		if sum != sp.Task.WCET {
			return fmt.Errorf("split %d: budgets sum to %v, WCET %v", sp.Task.ID, sum, sp.Task.WCET)
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("assignment holds %d of %d tasks", len(seen), len(want))
	}
	return nil
}

// checkRTA is the textbook response-time test (Joseph and Pandya) for
// a partitioned fixed-priority assignment without overheads: on every
// core, under rate-monotonic priorities, each task's response time
// R = C + sum over higher-priority tasks of ceil(R/T)*C meets R <= D.
func checkRTA(a *task.Assignment) error {
	if len(a.Splits) != 0 {
		return fmt.Errorf("partitioned assignment has %d split tasks", len(a.Splits))
	}
	for c, ts := range a.Normal {
		rm := append([]*task.Task(nil), ts...)
		sort.Slice(rm, func(i, j int) bool {
			if rm[i].Period != rm[j].Period {
				return rm[i].Period < rm[j].Period
			}
			return rm[i].ID < rm[j].ID
		})
		for i, t := range rm {
			d := t.EffectiveDeadline()
			resp := t.WCET
			for {
				next := t.WCET
				for _, h := range rm[:i] {
					next += (resp + h.Period - 1) / h.Period * h.WCET
				}
				if next > d {
					return fmt.Errorf("core %d: task %d response time exceeds deadline %v", c, t.ID, d)
				}
				if next == resp {
					break
				}
				resp = next
			}
		}
	}
	return nil
}

// checkEDFUtilization is the exact EDF test for a partitioned
// assignment of implicit-deadline tasks without overheads: on every
// core the sum of C/T, in exact rational arithmetic, is at most 1.
func checkEDFUtilization(a *task.Assignment) error {
	if len(a.Splits) != 0 {
		return fmt.Errorf("partitioned assignment has %d split tasks", len(a.Splits))
	}
	one := big.NewRat(1, 1)
	for c, ts := range a.Normal {
		u := new(big.Rat)
		for _, t := range ts {
			if t.EffectiveDeadline() != t.Period {
				return fmt.Errorf("core %d: task %d has a constrained deadline", c, t.ID)
			}
			u.Add(u, big.NewRat(int64(t.WCET), int64(t.Period)))
		}
		if u.Cmp(one) > 0 {
			return fmt.Errorf("core %d: utilization %s exceeds 1", c, u.FloatString(6))
		}
	}
	return nil
}

// simulate runs the simulator over the fixed horizon and reports any
// deadline miss.
func simulate(a *task.Assignment, m *overhead.Model) error {
	res, err := sched.Run(a, sched.Config{Model: m, Horizon: simHorizon})
	if err != nil {
		return fmt.Errorf("simulator: %v", err)
	}
	if !res.Schedulable() {
		return fmt.Errorf("simulator: %d deadline misses, first %v", len(res.Misses), res.Misses[0])
	}
	return nil
}

// toTask converts a wire task to the task model.
func toTask(j api.Task) *task.Task {
	return &task.Task{
		ID:       task.ID(j.ID),
		Name:     j.Name,
		WCET:     timeq.Time(j.WCETNs),
		Period:   timeq.Time(j.PeriodNs),
		Deadline: timeq.Time(j.DeadlineNs),
		Priority: j.Priority,
		WSS:      j.WSS,
	}
}

// toSplit converts a wire split to the task model.
func toSplit(j api.Split) *task.Split {
	sp := &task.Split{Task: toTask(j.Task)}
	for _, p := range j.Parts {
		sp.Parts = append(sp.Parts, task.Part{Core: p.Core, Budget: timeq.Time(p.BudgetNs)})
	}
	for _, w := range j.WindowsNs {
		sp.Windows = append(sp.Windows, timeq.Time(w))
	}
	return sp
}

// placed is one committed task as the benchmark records it: the wire
// task with its core, or a split.
type placed struct {
	task  api.Task
	core  int
	split *api.Split
}

// assignmentOf builds the assignment a session should hold from the
// benchmark's record.
func assignmentOf(cores int, p task.Policy, tasks []placed) *task.Assignment {
	a := task.NewAssignment(cores)
	a.Policy = p
	for _, t := range tasks {
		if t.split != nil {
			a.Splits = append(a.Splits, toSplit(*t.split))
		} else {
			a.Place(toTask(t.task), t.core)
		}
	}
	return a
}

// diffState compares a session's state with the benchmark's record and
// returns the first difference, or "" when they are equal.
func diffState(st api.State, cores int, p task.Policy, want []placed) string {
	if st.Cores != cores {
		return fmt.Sprintf("%d cores, want %d", st.Cores, cores)
	}
	if st.Policy != wirePolicy(p) {
		return fmt.Sprintf("policy %q, want %q", st.Policy, wirePolicy(p))
	}
	if st.ProbePending {
		return "a probe is pending"
	}
	got := make(map[int64]placed, len(st.Tasks)+len(st.Splits))
	for _, t := range st.Tasks {
		got[t.ID] = placed{task: t, core: t.Core}
	}
	for i := range st.Splits {
		sp := st.Splits[i]
		got[sp.Task.ID] = placed{task: sp.Task, split: &sp}
	}
	if len(got) != len(st.Tasks)+len(st.Splits) {
		return "a task id appears twice"
	}
	for _, w := range want {
		g, ok := got[w.task.ID]
		if !ok {
			return fmt.Sprintf("task %d missing", w.task.ID)
		}
		if (g.split == nil) != (w.split == nil) {
			return fmt.Sprintf("task %d: split %v, want split %v", w.task.ID, g.split != nil, w.split != nil)
		}
		if d := diffTask(g.task, w.task); d != "" {
			return fmt.Sprintf("task %d: %s", w.task.ID, d)
		}
		if w.split == nil && g.core != w.core {
			return fmt.Sprintf("task %d on core %d, want %d", w.task.ID, g.core, w.core)
		}
		if w.split != nil && fmt.Sprint(g.split.Parts, g.split.WindowsNs) != fmt.Sprint(w.split.Parts, w.split.WindowsNs) {
			return fmt.Sprintf("split %d parts %v, want %v", w.task.ID, g.split.Parts, w.split.Parts)
		}
		delete(got, w.task.ID)
	}
	for id := range got {
		return fmt.Sprintf("unexpected task %d", id)
	}
	if sch := st.Schedulable; sch != nil && !*sch {
		return "the session reports its state unschedulable"
	}
	return ""
}

// diffTask compares the task parameters that admission depends on.
func diffTask(g, w api.Task) string {
	if g.WCETNs != w.WCETNs || g.PeriodNs != w.PeriodNs || g.DeadlineNs != w.DeadlineNs || g.Priority != w.Priority {
		return fmt.Sprintf("C=%d T=%d D=%d P=%d, want C=%d T=%d D=%d P=%d",
			g.WCETNs, g.PeriodNs, g.DeadlineNs, g.Priority, w.WCETNs, w.PeriodNs, w.DeadlineNs, w.Priority)
	}
	return ""
}
