package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
)

// admit-read: read-only traffic against seeded sessions. Half the
// sessions are fixed-priority, half EDF, all on the paper overhead
// model. Their per-core resident load rises from core 0 to core 3 and
// the probe catalogue spans light to heavy tasks, so first-fit
// verdicts land on every core and the heaviest probes are rejected
// everywhere.
const (
	readSessions = 4
	readProbes   = 12
	probeIDBase  = 900000
)

// Read op kinds.
const (
	kTry = iota
	kState
	kStats
	kBatch
	readKinds
)

var readKindNames = [readKinds]string{"try", "state", "stats", "batch"}

// One round of a read client: every (probe, target) try once, where a
// target is a core or first-fit, plus a fixed number of state, stats
// and try-only batch reads. The composition is fixed; the seed orders
// the round and picks each op's session.
const (
	readStatesPerRound  = 8
	readStatsPerRound   = 8
	readBatchesPerRound = 4
	firstFit            = svcCores // the target index of a first-fit try
)

type readOp struct {
	kind, sess, probe, target int
}

type svcSession struct {
	name      string
	policy    task.Policy
	residents []placed
}

// wirePolicy is the wire name of a scheduling policy.
func wirePolicy(p task.Policy) string {
	if p == task.EDF {
		return "edf"
	}
	return "fp"
}

// readPlan is the whole admit-read input, a function of the seed.
type readPlan struct {
	sessions []svcSession
	probes   []api.Task
	rounds   [][]readOp // one per client
}

// newReadPlan draws the sessions' residents, the probe catalogue and
// every client's round from the seed.
func newReadPlan(seed int64, clients int) *readPlan {
	periods := newUniquePeriods(mix(seed, 10))
	rng := rand.New(rand.NewSource(mix(seed, 11)))
	p := &readPlan{}
	coreLoad := [svcCores]float64{0.40, 0.50, 0.60, 0.70}
	for s := 0; s < readSessions; s++ {
		sess := svcSession{name: fmt.Sprintf("read-%d", s), policy: task.FixedPriority}
		if s%2 == 1 {
			sess.policy = task.EDF
		}
		id := int64(s*1000 + 1)
		for c := 0; c < svcCores; c++ {
			var core []placed
			core, id = drawResidents(rng, periods, sess.policy, c, coreLoad[c], id)
			sess.residents = append(sess.residents, core...)
		}
		p.sessions = append(p.sessions, sess)
	}
	for k := 0; k < readProbes; k++ {
		u := 0.03 + 0.59*float64(k)/float64(readProbes-1)
		p.probes = append(p.probes, lightTask(probeIDBase+int64(k), u, periods.next(10*time.Millisecond, 200*time.Millisecond)))
	}
	for ci := 0; ci < clients; ci++ {
		var ops []readOp
		for k := 0; k < readProbes; k++ {
			for t := 0; t <= firstFit; t++ {
				ops = append(ops, readOp{kind: kTry, probe: k, target: t})
			}
		}
		for i := 0; i < readStatesPerRound; i++ {
			ops = append(ops, readOp{kind: kState})
		}
		for i := 0; i < readStatsPerRound; i++ {
			ops = append(ops, readOp{kind: kStats})
		}
		for i := 0; i < readBatchesPerRound; i++ {
			ops = append(ops, readOp{kind: kBatch})
		}
		r := rand.New(rand.NewSource(mix(seed, 12, ci)))
		r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		for i := range ops {
			ops[i].sess = i % readSessions
		}
		p.rounds = append(p.rounds, ops)
	}
	return p
}

// drawResidents draws tasks of 0.06 to 0.14 utilization onto core c
// until they reach load, redrawing until the stateless analyzer
// accepts the core under the paper model. It returns the residents
// and the next free task ID.
func drawResidents(rng *rand.Rand, periods *uniquePeriods, p task.Policy, c int, load float64, id int64) ([]placed, int64) {
	an, model := analysis.ForPolicy(p), overhead.PaperModel()
	for {
		var core []placed
		for sum := 0.0; sum < load-0.01; id++ {
			u := 0.06 + 0.08*rng.Float64()
			if sum+u > load {
				u = load - sum
			}
			sum += u
			core = append(core, placed{task: lightTask(id, u, periods.next(10*time.Millisecond, 200*time.Millisecond)), core: c})
		}
		if an.CoreSchedulable(assignmentOf(svcCores, p, core), c, model) {
			return core, id
		}
	}
}

// lightTask is a wire task of utilization u with an implicit deadline
// and a rate-monotonic priority (smaller is higher).
func lightTask(id int64, u float64, period int64) api.Task {
	c := int64(u * float64(period))
	if c < 1 {
		c = 1
	}
	return api.Task{ID: id, WCETNs: c, PeriodNs: period, Priority: int(period / 1000)}
}

// outcome encodes a verdict: 0 for rejected, core+1 when admitted.
func outcome(v api.Verdict) int {
	if !v.Admitted {
		return 0
	}
	return v.Core + 1
}

// readClient is one closed-loop client's state. seen counts verdicts
// by (session, probe, target, outcome); the oracle checks them after
// the run.
type readClient struct {
	plan     *readPlan
	sessions []*client.Session
	ops      []readOp
	seen     []int64
	state    api.State
	failed   int64
	bad      []string
	batch    api.BatchRequest
}

func seenIndex(sess, probe, target, out int) int {
	return ((sess*readProbes+probe)*(firstFit+1)+target)*(svcCores+1) + out
}

func newReadClient(p *readPlan, c *client.Client, ci int) *readClient {
	rc := &readClient{plan: p, ops: p.rounds[ci], seen: make([]int64, readSessions*readProbes*(firstFit+1)*(svcCores+1))}
	for _, s := range p.sessions {
		rc.sessions = append(rc.sessions, c.Session(s.name))
	}
	rc.batch = api.BatchRequest{Tasks: p.probes, TryOnly: true}
	return rc
}

func (rc *readClient) badf(format string, args ...any) {
	if len(rc.bad) < 20 {
		rc.bad = append(rc.bad, fmt.Sprintf(format, args...))
	}
}

func (rc *readClient) record(sess, probe, target int, v api.Verdict) {
	out := outcome(v)
	if out > svcCores || v.Core >= svcCores {
		rc.badf("session %d probe %d: verdict on core %d", sess, probe, v.Core)
		return
	}
	rc.seen[seenIndex(sess, probe, target, out)]++
}

// round runs one round of ops, timing each from send to decoded
// response, and returns the number of ops issued.
func (rc *readClient) round(lat latencies) int {
	ctx := context.Background()
	for _, op := range rc.ops {
		s := rc.sessions[op.sess]
		t0 := time.Now()
		var err error
		switch op.kind {
		case kTry:
			req := api.AdmitRequest{Task: rc.plan.probes[op.probe]}
			if op.target != firstFit {
				core := op.target
				req.Core = &core
			}
			var v api.Verdict
			if v, err = s.Try(ctx, req); err == nil {
				lat.add(kTry, time.Since(t0))
				rc.record(op.sess, op.probe, op.target, v)
			}
		case kState:
			if err = s.StateInto(ctx, &rc.state); err == nil {
				lat.add(kState, time.Since(t0))
				if n := len(rc.plan.sessions[op.sess].residents); len(rc.state.Tasks) != n || len(rc.state.Splits) != 0 || rc.state.ProbePending {
					rc.badf("%s: state has %d tasks, %d splits, pending %v; want %d residents", s.Name(), len(rc.state.Tasks), len(rc.state.Splits), rc.state.ProbePending, n)
				}
			}
		case kStats:
			var st api.SessionStats
			if st, err = s.Stats(ctx); err == nil {
				lat.add(kStats, time.Since(t0))
				if n := len(rc.plan.sessions[op.sess].residents); st.Tasks != n {
					rc.badf("%s: stats report %d tasks, want %d", s.Name(), st.Tasks, n)
				}
			}
		case kBatch:
			err = rc.runBatch(ctx, s, op.sess)
			if err == nil {
				lat.add(kBatch, time.Since(t0))
			}
		}
		if opErr(err, &rc.failed) {
			rc.badf("%s %s: %v", s.Name(), readKindNames[op.kind], err)
		}
	}
	return len(rc.ops)
}

// runBatch sends the whole catalogue as one try-only batch and records
// every verdict line as a first-fit verdict.
func (rc *readClient) runBatch(ctx context.Context, s *client.Session, sess int) error {
	stream, err := s.Batch(ctx, rc.batch)
	if err != nil {
		return err
	}
	defer stream.Close()
	n := 0
	for stream.Next() {
		v := stream.Verdict()
		k := int(v.TaskID - probeIDBase)
		if k < 0 || k >= readProbes {
			rc.badf("%s batch: verdict for unknown task %d", s.Name(), v.TaskID)
			continue
		}
		rc.record(sess, k, firstFit, v)
		n++
	}
	sum, err := stream.Summary()
	if err != nil {
		return err
	}
	if !sum.TryOnly || n != readProbes || sum.Admitted+sum.Rejected != readProbes {
		rc.badf("%s batch: %d lines, summary %+v", s.Name(), n, sum)
	}
	return nil
}

// readOracle gives, for every (session, probe, target), the verdict of
// the stateless analyzer on the session's resident state plus the
// probed task: on the target core, or on the first core that accepts
// it.
func readOracle(p *readPlan) []int {
	model := overhead.PaperModel()
	want := make([]int, readSessions*readProbes*(firstFit+1))
	for si, s := range p.sessions {
		a := assignmentOf(svcCores, s.policy, s.residents)
		an := analysis.ForPolicy(s.policy)
		fits := func(probe api.Task, c int) bool {
			n := len(a.Normal[c])
			a.Place(toTask(probe), c)
			ok := an.CoreSchedulable(a, c, model)
			a.Normal[c] = a.Normal[c][:n]
			return ok
		}
		for k, probe := range p.probes {
			ff := 0
			for c := 0; c < svcCores; c++ {
				out := 0
				if fits(probe, c) {
					out = c + 1
					if ff == 0 {
						ff = out
					}
				}
				want[(si*readProbes+k)*(firstFit+1)+c] = out
			}
			want[(si*readProbes+k)*(firstFit+1)+firstFit] = ff
		}
	}
	return want
}

// checkOracleCoverage checks the set-up contract: the residents are
// schedulable and the catalogue gets both verdicts on every session.
func checkOracleCoverage(p *readPlan, want []int) error {
	model := overhead.PaperModel()
	for si, s := range p.sessions {
		if !analysis.ForPolicy(s.policy).Schedulable(assignmentOf(svcCores, s.policy, s.residents), model) {
			return fmt.Errorf("session %s: the residents are not schedulable", s.name)
		}
		var admitted, rejected int
		for k := range p.probes {
			if want[(si*readProbes+k)*(firstFit+1)+firstFit] == 0 {
				rejected++
			} else {
				admitted++
			}
		}
		if admitted == 0 || rejected == 0 {
			return fmt.Errorf("session %s: the catalogue gets %d admitted and %d rejected first-fit verdicts", s.name, admitted, rejected)
		}
	}
	return nil
}

// checkVerdicts compares every recorded verdict with the oracle.
func checkVerdicts(r *report, p *readPlan, want []int, seen []int64) {
	for si := range p.sessions {
		for k := range p.probes {
			for t := 0; t <= firstFit; t++ {
				w := want[(si*readProbes+k)*(firstFit+1)+t]
				for out := 0; out <= svcCores; out++ {
					if n := seen[seenIndex(si, k, t, out)]; n > 0 && out != w {
						r.failf("%s probe %d target %d: %d verdicts with outcome %d, the stateless analyzer gives %d",
							p.sessions[si].name, k, t, n, out, w)
					}
				}
			}
		}
	}
}

// seedSessions creates the plan's sessions and admits their residents
// onto their cores; every resident must be admitted.
func seedSessions(c *client.Client, sessions []svcSession) error {
	ctx := context.Background()
	for _, s := range sessions {
		sess, err := c.CreateSession(ctx, api.CreateSessionRequest{Name: s.name, Cores: svcCores, Policy: wirePolicy(s.policy)})
		if err != nil {
			return fmt.Errorf("create %s: %w", s.name, err)
		}
		for _, t := range s.residents {
			core := t.core
			v, err := sess.Admit(ctx, api.AdmitRequest{Task: t.task, Core: &core})
			if err != nil {
				return fmt.Errorf("seed %s: %w", s.name, err)
			}
			if !v.Admitted || v.Core != core {
				return fmt.Errorf("seed %s: resident %d not admitted on core %d (verdict %+v)", s.name, t.task.ID, core, v)
			}
		}
	}
	return nil
}

// readRig is one set-up of admit-read: the server, its sessions and
// warmed clients.
type readRig struct {
	svc     *service
	clients []*readClient
}

func setupRead(o options, p *readPlan) (*readRig, error) {
	svc, err := startService("")
	if err != nil {
		return nil, err
	}
	if err := seedSessions(svc.tcpClient(), p.sessions); err != nil {
		svc.close()
		return nil, err
	}
	rig := &readRig{svc: svc}
	for ci := range p.rounds {
		rig.clients = append(rig.clients, newReadClient(p, svc.tcpClient(), ci))
	}
	drive(0, len(rig.clients), readKinds, func(ci int, lat latencies) int {
		n := 0
		for n < o.size.warmOps {
			n += rig.clients[ci].round(lat)
		}
		return n
	})
	for _, rc := range rig.clients {
		if rc.failed > 0 {
			svc.close()
			return nil, fmt.Errorf("warm-up: %d failed ops, first: %v", rc.failed, rc.bad)
		}
	}
	return rig, nil
}

// phase runs the clients' rounds for the given span.
func (rig *readRig) phase(span time.Duration, cs []*readClient) phase {
	return drive(span, len(cs), readKinds, func(ci int, lat latencies) int { return cs[ci].round(lat) })
}

// finish folds the clients' counters into the report and runs the
// post-run checks: every verdict against the oracle, and every
// session's state against the seeded state.
func (rig *readRig) finish(r *report, p *readPlan, want []int, cs ...[]*readClient) {
	seen := make([]int64, len(rig.clients[0].seen))
	for _, group := range cs {
		for _, rc := range group {
			for i, n := range rc.seen {
				seen[i] += n
			}
			r.Failed += rc.failed
			for _, b := range rc.bad {
				r.failf("%s", b)
			}
		}
	}
	checkVerdicts(r, p, want, seen)
	c := rig.svc.tcpClient()
	for _, s := range p.sessions {
		st, err := c.Session(s.name).State(context.Background())
		if err != nil {
			r.failf("final state of %s: %v", s.name, err)
			continue
		}
		if d := diffState(st, svcCores, s.policy, s.residents); d != "" {
			r.failf("final state of %s differs from the seeded state: %s", s.name, d)
		}
	}
}

func runRead(o options, r *report) error {
	p := newReadPlan(o.seed, clientCount())
	want := readOracle(p)
	if err := checkOracleCoverage(p, want); err != nil {
		return err
	}
	var rig *readRig
	setup, err := timeSetups(o, func() (func() error, error) {
		var err error
		if rig, err = setupRead(o, p); err != nil {
			return nil, err
		}
		return rig.svc.close, nil
	})
	if err != nil {
		return err
	}
	defer rig.svc.close()
	ph := rig.phase(time.Duration(o.seconds*float64(time.Second)), rig.clients)
	r.Attempted += ph.ops
	setE2E(r, setup, ph)
	rig.finish(r, p, want, rig.clients)
	return nil
}

func traceRead(o options, r *report) error {
	p := newReadPlan(o.seed, clientCount())
	want := readOracle(p)
	if err := checkOracleCoverage(p, want); err != nil {
		return err
	}
	rig, err := setupRead(o, p)
	if err != nil {
		return err
	}
	defer rig.svc.close()
	tcp := rig.svc.tcpClient()

	untraced := rig.phase(o.size.phase, rig.clients)
	m0, err := readMetrics(tcp)
	if err != nil {
		return err
	}
	mem := startMem()
	traced := rig.phase(o.size.phase, rig.clients)
	mallocs, _ := mem.stop()
	m1, err := readMetrics(tcp)
	if err != nil {
		return err
	}
	var inproc []*readClient
	for ci := range p.rounds {
		inproc = append(inproc, newReadClient(p, rig.svc.inProcClient(), ci))
	}
	in := rig.phase(o.size.phase, inproc)
	r.Attempted += untraced.ops + traced.ops + in.ops

	for k, name := range readKindNames {
		cl, ad := traced.lat.p50us(k), in.lat.p50us(k)
		r.set("client."+name+"_us", "us", cl)
		r.set("admitd."+name+"_us", "us", ad)
		r.set("nethttp."+name+"_us", "us", cl-ad)
	}
	r.set("analysis.read_verdict_hit_ratio", "ratio",
		delta(m0, m1, "admitd_admission_verdict_hits_total")/delta(m0, m1, "admitd_admission_core_tests_total"))
	hits, misses := delta(m0, m1, "admitd_state_cache_hits_total"), delta(m0, m1, "admitd_state_cache_misses_total")
	r.set("admitd.state_cache_hit_ratio", "ratio", hits/(hits+misses))
	r.set("admitd.inproc_ops_per_s", "1/s", in.opsPerS())
	r.set("go.allocs_per_read_op", "count", float64(mallocs)/float64(traced.ops))
	r.set("admit-read.trace_overhead_ops_per_s", "1/s", traced.opsPerS()-untraced.opsPerS())
	r.notef("admit-read trace overhead: traced %.0f/s - untraced %.0f/s = %+.0f/s; in-process %.0f/s",
		traced.opsPerS(), untraced.opsPerS(), traced.opsPerS()-untraced.opsPerS(), in.opsPerS())

	if err := traceCodecs(r, rig.svc, p); err != nil {
		return err
	}
	buf := make([]byte, 0, 64<<10)
	r.set("telemetry.scrape_us", "us", timeLoop(50, func() { buf = rig.svc.srv.Metrics().WritePrometheus(buf[:0]) })/1e3)

	rig.finish(r, p, want, rig.clients, inproc)
	return nil
}

// timeLoop returns the median over seven batches of the mean time of
// one call of fn in nanoseconds, with n calls per batch.
func timeLoop(n int, fn func()) float64 {
	var means []float64
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		means = append(means, float64(time.Since(t0))/float64(n))
	}
	return median(means)
}

// traceCodecs times the api fast codecs on payloads captured from the
// running server: an admit request as the client encodes it, a try
// verdict, a state body and a stats body.
func traceCodecs(r *report, svc *service, p *readPlan) error {
	ctx := context.Background()
	sess := svc.tcpClient().Session(p.sessions[0].name)
	req := api.AdmitRequest{Task: p.probes[0]}
	v, err := sess.Try(ctx, req)
	if err != nil {
		return err
	}
	admitBody, ok := api.AppendAdmitRequest(nil, &req)
	if !ok {
		return fmt.Errorf("codec: the admit request has no fast encoding")
	}
	verdictBody := api.AppendVerdict(nil, &v)
	stateBody, err := rawGet(svc, api.SessionPath(p.sessions[0].name))
	if err != nil {
		return err
	}
	statsBody, err := rawGet(svc, api.SessionOpPath(p.sessions[0].name, api.OpStats))
	if err != nil {
		return err
	}
	var (
		ar  api.AdmitRequest
		vd  api.Verdict
		st  api.State
		ss  api.SessionStats
		buf []byte
	)
	parsed := true
	r.set("api.parse_admit_ns", "ns", timeLoop(2000, func() { _, _, ok := api.ParseAdmitRequest(admitBody, &ar); parsed = parsed && ok }))
	r.set("api.append_verdict_ns", "ns", timeLoop(2000, func() { buf = api.AppendVerdict(buf[:0], &v) }))
	r.set("api.parse_verdict_ns", "ns", timeLoop(2000, func() { parsed = api.ParseVerdict(verdictBody, &vd) && parsed }))
	r.set("api.parse_state_us", "us", timeLoop(200, func() { parsed = api.ParseState(stateBody, &st) && parsed })/1e3)
	r.set("api.parse_stats_ns", "ns", timeLoop(2000, func() { parsed = api.ParseSessionStats(statsBody, &ss) && parsed }))
	if !parsed || vd != v || ar.Task != req.Task || len(st.Tasks) != len(p.sessions[0].residents) || ss.Tasks != len(p.sessions[0].residents) {
		r.failf("codec: captured payloads did not round-trip (parsed %v, verdict %+v vs %+v)", parsed, vd, v)
	}
	return nil
}

// rawGet fetches one route's response body over the loopback socket.
func rawGet(svc *service, path string) ([]byte, error) {
	resp, err := (&http.Client{Transport: svc.tr}).Get(svc.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body, nil
}
