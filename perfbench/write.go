package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
)

// admit-write: durable churn. Both clients admit, split and remove
// light tasks on shared fixed-priority sessions, each client on slots
// of its own, so group commit can coalesce the two clients' ops. At
// set-up the stateless analyzer must accept the residents together
// with every churn task that can be present at once, so every admit
// and split is admitted under any interleaving of the clients.
const (
	writeSessions = 2
	// Per client and session: writeAdmitSlots single-core slots and
	// one split slot.
	writeAdmitSlots = 3
	writeLoad       = 0.40 // resident load per core
)

// Write op kinds.
const (
	kAdmit = iota
	kSplit
	kRemove
	writeKinds
)

var writeKindNames = [writeKinds]string{"admit", "split", "remove"}

// slot is one churn position: a task shape on a core, or a split over
// two cores. Each round toggles every slot once: a fresh task is
// admitted into an empty slot, and a present one removed.
type slot struct {
	sess    int
	shape   api.Task // ID assigned per incarnation
	core    int
	split   bool
	core2   int
	present bool
	id      int64
}

// placedAs is the slot's current incarnation as the session should
// hold it.
func (s *slot) placedAs() placed {
	t := s.shape
	t.ID = s.id
	if !s.split {
		return placed{task: t, core: s.core}
	}
	b1 := t.WCETNs / 2
	sp := api.Split{Task: t, Parts: []api.Part{{Core: s.core, BudgetNs: b1}, {Core: s.core2, BudgetNs: t.WCETNs - b1}}}
	return placed{task: t, split: &sp}
}

// writePlan is the whole admit-write input, a function of the seed.
type writePlan struct {
	sessions []svcSession
	slots    [][]slot // per client, in that client's round order
}

func newWritePlan(seed int64, clients int) *writePlan {
	periods := newUniquePeriods(mix(seed, 30))
	rng := rand.New(rand.NewSource(mix(seed, 31)))
	p := &writePlan{}
	for s := 0; s < writeSessions; s++ {
		sess := svcSession{name: fmt.Sprintf("write-%d", s), policy: task.FixedPriority}
		id := int64(s*1000 + 1)
		for c := 0; c < svcCores; c++ {
			var core []placed
			core, id = drawResidents(rng, periods, sess.policy, c, writeLoad, id)
			sess.residents = append(sess.residents, core...)
		}
		p.sessions = append(p.sessions, sess)
	}
	for ci := 0; ci < clients; ci++ {
		var slots []slot
		for s := 0; s < writeSessions; s++ {
			for k := 0; k <= writeAdmitSlots; k++ {
				u := 0.01 + 0.02*rng.Float64()
				sl := slot{sess: s, core: rng.Intn(svcCores), split: k == writeAdmitSlots}
				sl.shape = lightTask(0, u, periods.next(20*time.Millisecond, 200*time.Millisecond))
				sl.core2 = (sl.core + 1) % svcCores
				slots = append(slots, sl)
			}
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		p.slots = append(p.slots, slots)
	}
	return p
}

// superset is every task that can be present at once in session s:
// its residents and every slot of every client.
func (p *writePlan) superset(s int) []placed {
	all := append([]placed(nil), p.sessions[s].residents...)
	id := int64(1 << 40)
	for _, slots := range p.slots {
		for _, sl := range slots {
			if sl.sess == s {
				sl.id = id
				id++
				all = append(all, sl.placedAs())
			}
		}
	}
	return all
}

// checkSuperset is the set-up contract: the stateless analyzer accepts
// each session's superset.
func (p *writePlan) checkSuperset() error {
	model := overhead.PaperModel()
	for s, sess := range p.sessions {
		if !analysis.ForPolicy(sess.policy).Schedulable(assignmentOf(svcCores, sess.policy, p.superset(s)), model) {
			return fmt.Errorf("session %s: residents plus every churn task are not schedulable", sess.name)
		}
	}
	return nil
}

// writeClient is one closed-loop client and the slots it owns.
type writeClient struct {
	sessions  []*client.Session
	slots     []slot
	nextID    int64
	mutations int64 // committed admits, splits and removes
	failed    int64
	bad       []string
}

func newWriteClient(p *writePlan, c *client.Client, ci int) *writeClient {
	wc := &writeClient{slots: append([]slot(nil), p.slots[ci]...), nextID: int64(ci+1) * 1e9}
	for _, s := range p.sessions {
		wc.sessions = append(wc.sessions, c.Session(s.name))
	}
	return wc
}

func (wc *writeClient) badf(format string, args ...any) {
	if len(wc.bad) < 20 {
		wc.bad = append(wc.bad, fmt.Sprintf(format, args...))
	}
}

// round toggles every slot once, timing each request from send to
// decoded response.
func (wc *writeClient) round(lat latencies) int {
	ctx := context.Background()
	for i := range wc.slots {
		sl := &wc.slots[i]
		s := wc.sessions[sl.sess]
		t0 := time.Now()
		var err error
		switch {
		case sl.present:
			var rm api.Removed
			if rm, err = s.Remove(ctx, sl.id); err == nil {
				lat.add(kRemove, time.Since(t0))
				if !rm.Removed || rm.ID != sl.id {
					wc.badf("%s: remove %d answered %+v", s.Name(), sl.id, rm)
					continue
				}
				sl.present = false
				wc.mutations++
			}
		case sl.split:
			sl.id = wc.nextID
			wc.nextID++
			var v api.Verdict
			if v, err = s.Split(ctx, api.SplitRequest{Split: *sl.placedAs().split}); err == nil {
				lat.add(kSplit, time.Since(t0))
				if !v.Admitted {
					wc.badf("%s: split %d not admitted: %+v", s.Name(), sl.id, v)
					continue
				}
				sl.present = true
				wc.mutations++
			}
		default:
			sl.id = wc.nextID
			wc.nextID++
			core := sl.core
			var v api.Verdict
			if v, err = s.Admit(ctx, api.AdmitRequest{Task: sl.placedAs().task, Core: &core}); err == nil {
				lat.add(kAdmit, time.Since(t0))
				if !v.Admitted || v.Core != core {
					wc.badf("%s: admit %d on core %d answered %+v", s.Name(), sl.id, core, v)
					continue
				}
				sl.present = true
				wc.mutations++
			}
		}
		if opErr(err, &wc.failed) {
			wc.badf("%s: %v", s.Name(), err)
		}
	}
	return len(wc.slots)
}

// writeRig is one set-up of admit-write: a durable server, its seeded
// sessions and warmed clients.
type writeRig struct {
	svc     *service
	dataDir string
	clients []*writeClient
}

func setupWrite(o options, p *writePlan) (*writeRig, error) {
	dataDir, err := os.MkdirTemp(o.dir, "admit-write-")
	if err != nil {
		return nil, err
	}
	svc, err := startService(dataDir)
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	rig := &writeRig{svc: svc, dataDir: dataDir}
	if err := seedSessions(svc.tcpClient(), p.sessions); err != nil {
		rig.close()
		return nil, err
	}
	for ci := range p.slots {
		rig.clients = append(rig.clients, newWriteClient(p, svc.tcpClient(), ci))
	}
	rig.phase(0, rig.clients, (o.size.warmOps+len(p.slots[0])-1)/len(p.slots[0]))
	for _, wc := range rig.clients {
		if wc.failed > 0 || len(wc.bad) > 0 {
			rig.close()
			return nil, fmt.Errorf("warm-up: %d failed ops: %v", wc.failed, wc.bad)
		}
		wc.mutations = 0
	}
	return rig, nil
}

// close stops the server and removes the data directory.
func (rig *writeRig) close() error {
	err := rig.svc.close()
	if rerr := os.RemoveAll(rig.dataDir); err == nil {
		err = rerr
	}
	return err
}

// phase runs the clients for the given span, rounds rounds at a time.
func (rig *writeRig) phase(span time.Duration, cs []*writeClient, rounds int) phase {
	return drive(span, len(cs), writeKinds, func(ci int, lat latencies) int {
		n := 0
		for i := 0; i < rounds; i++ {
			n += cs[ci].round(lat)
		}
		return n
	})
}

// expected is the benchmark's record of session s: its residents and
// the churn tasks the clients hold.
func (rig *writeRig) expected(p *writePlan, s int) []placed {
	want := append([]placed(nil), p.sessions[s].residents...)
	for _, wc := range rig.clients {
		for i := range wc.slots {
			if sl := &wc.slots[i]; sl.present && sl.sess == s {
				want = append(want, sl.placedAs())
			}
		}
	}
	return want
}

// checkStates compares every session's state with the record and runs
// the stateless analyzer on the state the server returns.
func (rig *writeRig) checkStates(r *report, p *writePlan, c *client.Client, when string) {
	model := overhead.PaperModel()
	for s, sess := range p.sessions {
		st, err := c.Session(sess.name).State(context.Background())
		if err != nil {
			r.failf("%s state of %s: %v", when, sess.name, err)
			continue
		}
		if d := diffState(st, svcCores, sess.policy, rig.expected(p, s)); d != "" {
			r.failf("%s state of %s differs from the record: %s", when, sess.name, d)
		}
		var got []placed
		for _, t := range st.Tasks {
			got = append(got, placed{task: t, core: t.Core})
		}
		for i := range st.Splits {
			got = append(got, placed{task: st.Splits[i].Task, split: &st.Splits[i]})
		}
		if !analysis.ForPolicy(sess.policy).Schedulable(assignmentOf(svcCores, sess.policy, got), model) {
			r.failf("%s state of %s: the stateless analyzer rejects it", when, sess.name)
		}
	}
}

// finish folds the clients' counters into the report, checks the
// states and the commit-log delta, then restarts the server on the
// same data directory and checks that it serves the same states. It
// returns the restart time.
func (rig *writeRig) finish(r *report, p *writePlan, appends float64, mutations int64) (time.Duration, error) {
	for _, wc := range rig.clients {
		r.Failed += wc.failed
		for _, b := range wc.bad {
			r.failf("%s", b)
		}
	}
	if int64(appends) != mutations {
		r.failf("commit log: %v appends for %d committed mutations", appends, mutations)
	}
	rig.checkStates(r, p, rig.svc.tcpClient(), "final")
	if err := rig.svc.close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	svc, err := startService(rig.dataDir)
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	rig.svc = svc
	rig.checkStates(r, p, svc.tcpClient(), "recovered")
	return time.Since(t0), nil
}

func walAppends(m0, m1 scrape) float64 { return delta(m0, m1, "admitd_wal_appends_total") }

func sumMutations(cs []*writeClient) int64 {
	var n int64
	for _, wc := range cs {
		n += wc.mutations
	}
	return n
}

func runWrite(o options, r *report) error {
	p := newWritePlan(o.seed, clientCount())
	if err := p.checkSuperset(); err != nil {
		return err
	}
	var rig *writeRig
	setup, err := timeSetups(o, func() (func() error, error) {
		var err error
		if rig, err = setupWrite(o, p); err != nil {
			return nil, err
		}
		return rig.close, nil
	})
	if err != nil {
		return err
	}
	defer rig.close()
	tcp := rig.svc.tcpClient()
	m0, err := readMetrics(tcp)
	if err != nil {
		return err
	}
	ph := rig.phase(time.Duration(o.seconds*float64(time.Second)), rig.clients, 1)
	m1, err := readMetrics(tcp)
	if err != nil {
		return err
	}
	r.Attempted += ph.ops
	setE2E(r, setup, ph)
	_, err = rig.finish(r, p, walAppends(m0, m1), sumMutations(rig.clients))
	return err
}

func traceWrite(o options, r *report) error {
	p := newWritePlan(o.seed, clientCount())
	if err := p.checkSuperset(); err != nil {
		return err
	}
	rig, err := setupWrite(o, p)
	if err != nil {
		return err
	}
	defer rig.close()
	tcp := rig.svc.tcpClient()

	m0, err := readMetrics(tcp)
	if err != nil {
		return err
	}
	untraced := rig.phase(o.size.phase, rig.clients, 1)
	m1, err := readMetrics(tcp)
	if err != nil {
		return err
	}
	mem := startMem()
	traced := rig.phase(o.size.phase, rig.clients, 1)
	mallocs, _ := mem.stop()
	m2, err := readMetrics(tcp)
	if err != nil {
		return err
	}
	// The in-process clients take over the TCP clients' slots, so the
	// record of what each session holds stays in one place.
	inproc := make([]*writeClient, len(rig.clients))
	for ci, wc := range rig.clients {
		cp := *wc
		cp.sessions = nil
		for _, s := range p.sessions {
			cp.sessions = append(cp.sessions, rig.svc.inProcClient().Session(s.name))
		}
		inproc[ci] = &cp
	}
	in := rig.phase(o.size.phase, inproc, 1)
	m3, err := readMetrics(tcp)
	if err != nil {
		return err
	}
	rig.clients = inproc
	r.Attempted += untraced.ops + traced.ops + in.ops

	ops := float64(traced.ops)
	for k, name := range writeKindNames {
		cl, ad := traced.lat.p50us(k), in.lat.p50us(k)
		r.set("client."+name+"_us", "us", cl)
		r.set("admitd."+name+"_us", "us", ad)
		r.set("nethttp."+name+"_us", "us", cl-ad)
	}
	r.set("admitd.drain_size_mean", "count", histMean(m1, m2, "admitd_group_commit_drain_size"))
	r.set("admitd.publishes_per_op", "count", delta(m1, m2, "admitd_snapshot_publishes_total")/ops)
	r.set("wal.appends_per_op", "count", walAppends(m1, m2)/ops)
	r.set("wal.payload_bytes_per_op", "B", delta(m1, m2, "admitd_wal_payload_bytes_total")/ops)
	r.set("wal.records_per_drain_mean", "count", histMean(m1, m2, "admitd_wal_records_per_drain"))
	r.set("wal.fsyncs_per_s", "1/s", delta(m1, m2, "admitd_wal_fsyncs_total")/traced.elapsed.Seconds())
	r.set("wal.fsync_us_p50", "us", 1e6*histQuantile(m1, m2, "admitd_wal_fsync_duration_seconds", 0.5))
	r.set("go.allocs_per_write_op", "count", float64(mallocs)/ops)
	r.set("admit-write.trace_overhead_ops_per_s", "1/s", traced.opsPerS()-untraced.opsPerS())
	r.notef("admit-write trace overhead: traced %.0f/s - untraced %.0f/s = %+.0f/s; in-process %.0f/s",
		traced.opsPerS(), untraced.opsPerS(), traced.opsPerS()-untraced.opsPerS(), in.opsPerS())

	recover, err := rig.finish(r, p, walAppends(m0, m3), sumMutations(inproc))
	if err != nil {
		return err
	}
	r.set("wal.recover_s", "s", recover.Seconds())
	return nil
}
