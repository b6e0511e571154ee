package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/admitd"
)

// The service workloads' platform and sizing.
const (
	svcCores = 4
	// svcClients caps the closed-loop clients; each waits for its
	// verdict before sending the next request.
	svcClients = 2
)

// clientCount is the number of closed-loop clients: at most nproc.
func clientCount() int {
	if n := runtime.NumCPU(); n < svcClients {
		return n
	}
	return svcClients
}

// service is one admitd server in this process, served over a
// loopback listener.
type service struct {
	srv  *admitd.Server
	hs   *http.Server
	base string
	tr   *http.Transport
	done chan struct{}
}

// startService starts admitd (durable when dataDir is set, with the
// default group fsync policy) behind a loopback listener.
func startService(dataDir string) (*service, error) {
	srv, err := admitd.New(admitd.Config{DataDir: dataDir, Fsync: "group"})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{
		srv:  srv,
		hs:   &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		tr:   &http.Transport{MaxIdleConnsPerHost: svcClients, IdleConnTimeout: time.Minute},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return s, nil
}

// tcpClient returns a client that speaks to the server over the
// loopback socket, with keep-alive connections.
func (s *service) tcpClient() *client.Client {
	c, err := client.New(s.base, client.WithHTTPClient(&http.Client{Transport: s.tr}))
	if err != nil {
		panic(err) // the base URL is built above
	}
	return c
}

// inProcClient returns a client that calls the server's handler
// directly, with no socket.
func (s *service) inProcClient() *client.Client { return client.InProcess(s.srv) }

// close drains the listener, waits for the serve goroutine and closes
// the server.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.tr.CloseIdleConnections()
	s.srv.Close()
	return err
}

// histBase is the bucket growth of latHist: consecutive bucket bounds
// differ by 1/64, so an interpolated quantile is within 1.6% of the
// exact one.
var histBase = math.Log1p(1.0 / 64)

// histBuckets covers latencies up to about 100 s.
const histBuckets = 1700

// latHist is a log-bucketed latency histogram. Its memory does not grow
// with the number of requests, so a faster run does not carry a larger
// heap, and peak_rss_mb measures the program rather than the recorder.
type latHist struct {
	n      int64
	counts [histBuckets]int64
}

func (h *latHist) add(d time.Duration) {
	i := 0
	if d > 1 {
		i = int(math.Log(float64(d)) / histBase)
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileUS returns the q-quantile (0 < q <= 1) in microseconds,
// interpolated geometrically inside the bucket that holds its rank;
// NaN when the histogram is empty.
func (h *latHist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := math.Max(1, math.Ceil(q*float64(h.n)))
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			f := (rank - cum) / float64(c)
			return math.Exp((float64(i)+f)*histBase) / 1e3
		}
		cum += float64(c)
	}
	return math.NaN()
}

// latencies holds one client's per-request latencies, one histogram
// per op kind.
type latencies []*latHist

func newLatencies(kinds int) latencies {
	l := make(latencies, kinds)
	for k := range l {
		l[k] = new(latHist)
	}
	return l
}

func (l latencies) add(kind int, d time.Duration) { l[kind].add(d) }

// all merges every op kind.
func (l latencies) all() *latHist {
	out := new(latHist)
	for _, h := range l {
		out.merge(h)
	}
	return out
}

// merge folds per-client latencies into one set.
func merge(ls []latencies) latencies {
	out := newLatencies(len(ls[0]))
	for _, l := range ls {
		for k := range l {
			out[k].merge(l[k])
		}
	}
	return out
}

// p50us is the median of one op kind's latencies in microseconds.
func (l latencies) p50us(kind int) float64 { return l[kind].quantileUS(0.5) }

// phase is the result of one closed-loop phase.
type phase struct {
	// elapsed is the phase's wall time, run its run time (clock).
	elapsed, run time.Duration
	ops          int64
	lat          latencies
}

func (p phase) opsPerS() float64 { return float64(p.ops) / p.run.Seconds() }

// drive runs one closed loop per client: each client runs whole rounds
// (round returns the ops it issued) until the span is over, at least
// one round each. It returns when every client has stopped.
func drive(span time.Duration, clients, kinds int, round func(ci int, lat latencies) int) phase {
	lats := make([]latencies, clients)
	ops := make([]int64, clients)
	var wg sync.WaitGroup
	c := startClock(runtime.GOMAXPROCS(0))
	deadline := c.t0.Add(span)
	for ci := 0; ci < clients; ci++ {
		lats[ci] = newLatencies(kinds)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				ops[ci] += int64(round(ci, lats[ci]))
			}
		}(ci)
	}
	wg.Wait()
	p := phase{lat: merge(lats)}
	p.elapsed, p.run = c.stop()
	for _, n := range ops {
		p.ops += n
	}
	return p
}

// setE2E records the end-to-end metrics of a timed service phase.
func setE2E(r *report, setup float64, p phase) {
	all := p.lat.all()
	r.set("setup_s", "s", setup)
	r.set("ops_per_s", "1/s", p.opsPerS())
	r.set("op_p50_us", "us", all.quantileUS(0.5))
	r.set("op_p90_us", "us", all.quantileUS(0.9))
	r.notef("timed phase: %.3f s, %.1f%% of it stolen", p.elapsed.Seconds(), 100*(1-p.run.Seconds()/p.elapsed.Seconds()))
}

// scrape is one parsed /metrics exposition: every sample line by its
// series name with labels, plus each histogram's buckets in order.
type scrape struct {
	v       map[string]float64
	buckets map[string][]bucket
}

type bucket struct{ le, cum float64 }

// readMetrics fetches and parses /metrics.
func readMetrics(c *client.Client) (scrape, error) {
	body, err := c.Metrics(context.Background())
	if err != nil {
		return scrape{}, err
	}
	return parseMetrics(body)
}

// parseMetrics reads the Prometheus text format that admitd writes.
func parseMetrics(body []byte) (scrape, error) {
	s := scrape{v: map[string]float64{}, buckets: map[string][]bucket{}}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return s, fmt.Errorf("metrics: bad line %q", line)
		}
		key := line[:sp]
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return s, fmt.Errorf("metrics: bad value in %q", line)
		}
		s.v[key] = val
		if i := strings.Index(key, `_bucket{`); i >= 0 {
			le := key[strings.LastIndex(key, `le="`)+4 : len(key)-2]
			bound := math.Inf(1)
			if le != "+Inf" {
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					return s, fmt.Errorf("metrics: bad bucket bound in %q", line)
				}
			}
			name := key[:i]
			s.buckets[name] = append(s.buckets[name], bucket{bound, val})
		}
	}
	return s, sc.Err()
}

// delta returns the increase of one series between two scrapes.
func delta(a, b scrape, key string) float64 { return b.v[key] - a.v[key] }

// histMean is a histogram's mean over the interval between two
// scrapes, from its _sum and _count deltas.
func histMean(a, b scrape, name string) float64 {
	return delta(a, b, name+"_sum") / delta(a, b, name+"_count")
}

// histQuantile estimates a quantile of the observations made between
// two scrapes from the bucket deltas alone, interpolating linearly
// inside the bucket that holds it.
func histQuantile(a, b scrape, name string, q float64) float64 {
	bb, ab := b.buckets[name], a.buckets[name]
	if len(bb) == 0 || len(ab) != len(bb) {
		return math.NaN()
	}
	total := bb[len(bb)-1].cum - ab[len(ab)-1].cum
	if total <= 0 {
		return math.NaN()
	}
	rank := q * total
	lo, prev := 0.0, 0.0
	for i := range bb {
		cum := bb[i].cum - ab[i].cum
		if cum >= rank {
			hi := bb[i].le
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-prev)/(cum-prev)
		}
		lo, prev = bb[i].le, cum
	}
	return lo
}

// uniquePeriods hands out task periods that no other task of the run
// uses, log-uniform in [lo, hi] and whole microseconds, so that
// priority = period in microseconds is rate-monotonic and unique.
type uniquePeriods struct {
	rng  *rand.Rand
	used map[int64]bool
}

func newUniquePeriods(seed int64) *uniquePeriods {
	return &uniquePeriods{rng: rand.New(rand.NewSource(seed)), used: map[int64]bool{}}
}

func (u *uniquePeriods) next(lo, hi time.Duration) int64 {
	for {
		l := math.Log(float64(lo)) + u.rng.Float64()*(math.Log(float64(hi))-math.Log(float64(lo)))
		us := int64(math.Exp(l) / 1e3)
		if !u.used[us] {
			u.used[us] = true
			return us * 1e3
		}
	}
}

// opErr reports whether err is a failed operation and counts it.
func opErr(err error, failed *int64) bool {
	if err == nil {
		return false
	}
	*failed++
	return true
}
