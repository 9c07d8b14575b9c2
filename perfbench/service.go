package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aved"
	"aved/internal/server"
)

// serviceMix is the design-service surface: an open loop of seeded
// Poisson arrivals against POST /v1/solve on server.New (CacheSize 128,
// as avedserver runs it) behind a loopback listener, from one
// connection. One operation is one request; its end-to-end time is the
// process CPU time from sending it to checking the reply — client and
// server together, since nothing else runs then. Its wall latency,
// counted from when it was due, is in the report's notes. A traced run
// then climbs a fixed rate ladder, on nproc connections, for max_rps.
//
// An open loop completes what it is offered, so its ops_per_s is not
// the completion rate but requests per CPU-second at the mix. Each five
// blocks of arrivals (about a second) are one window of the run.
type serviceMix struct {
	rate float64 // nominal arrivals per second
}

// Request classes and their shares of the mix. The shares and the
// nominal rate are assumptions, not observed traffic: the mix holds
// hits and misses in like measure, and the rate loads the service to
// about an eighth of the max_rps (about 1900/s) measured on a 2-vCPU
// host, so the nominal latencies are not queueing figures.
var mixClasses = []struct {
	kind  string
	share float64
}{
	{"hit", 0.30},        // repeats of a few paper requests: cache hits
	{"nocache", 0.30},    // paper requests with noCache: always solved
	{"inline", 0.32},     // perturbed Fig 3 + Fig 4 specs: parsed and solved
	{"bad", 0.04},        // malformed: 400
	{"infeasible", 0.04}, // no design meets them: 422
}

// Service-level limits: max_rps is the highest ladder rate whose tail
// stays within tailLimit.
const (
	tailLimit  = 20 * time.Millisecond
	ladderStep = 1.25
	ladderMax  = 16
)

// reqCase is one request of the pool with its expected reply.
type reqCase struct {
	kind   string
	body   []byte
	status int
	want   svcAnswer
}

// svcAnswer is the part of a 200 reply the benchmark checks.
type svcAnswer struct {
	label    string
	cost     float64
	down     float64
	jobHours float64
}

type serviceInst struct {
	serviceMix
	seed    int64
	srv     *server.Server
	hs      *http.Server
	served  chan error
	url     string
	tr      *http.Transport
	client  *http.Client
	conns   int // the ladder's connections
	cases   []reqCase
	byClass [][]int // case indices per mixClasses entry
}

func (s serviceMix) setup(seed int64) (instance, error) {
	in := &serviceInst{serviceMix: s, seed: seed, conns: runtime.NumCPU()}
	if err := in.buildCases(rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.srv = server.New(server.Config{CacheSize: 128})
	in.hs = &http.Server{Handler: in.srv.Handler()}
	in.served = make(chan error, 1)
	go func() { in.served <- in.hs.Serve(ln) }()
	in.url = "http://" + ln.Addr().String()
	in.tr = &http.Transport{MaxConnsPerHost: in.conns, MaxIdleConnsPerHost: in.conns, DisableCompression: true}
	in.client = &http.Client{Transport: in.tr}
	// Warm-up: every case once (filling the cache with the repeats), then
	// a short stretch of the mix at the nominal rate.
	for i := range in.cases {
		o := in.send(i, now())
		if o.err != nil {
			in.close()
			return nil, fmt.Errorf("warm-up: %w", o.err)
		}
	}
	if _, err := in.phase(s.rate, 300*time.Millisecond, 1, rand.New(rand.NewSource(seed+1))); err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return in, nil
}

func (in *serviceInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	in.hs.Shutdown(ctx)
	<-in.served
	in.srv.Close()
	in.tr.CloseIdleConnections()
}

// buildCases draws the request pool and answers every request with the
// library, the way the server will. Each solvable class cycles through
// its request kinds in fixed proportions and takes its loads and
// budgets from stratified draws, so every seed's pool spreads the same
// way over the request space and only the exact points differ.
func (in *serviceInst) buildCases(rng *rand.Rand) error {
	budgets := []string{"5m", "20m", "60m", "100m", "300m", "1000m"}
	// A scientific job solve takes tens of milliseconds, past the
	// service's latency limit on its own, so job requests come only as
	// cached repeats.
	hitPapers := []string{"scientific", "apptier", "apptier", "ecommerce", "ecommerce", "ecommerce"}
	missPapers := []string{"apptier", "apptier", "ecommerce", "ecommerce", "ecommerce"}
	// draw builds n requests of one class from gen(i, load, budget) and
	// keeps those that have a design.
	draw := func(kind string, n int, gen func(i, load int, budget string) map[string]any) error {
		loads, bs := strata(rng, n), strata(rng, n)
		added := 0
		for i := 0; i < n; i++ {
			c, err := answerRequest(gen(i, 200+int(loads[i]*39)*100, budgets[int(bs[i]*float64(len(budgets)))]))
			if err != nil {
				return err
			}
			if c.status == http.StatusOK {
				c.kind = kind
				in.cases = append(in.cases, c)
				added++
			}
		}
		if added < (n+1)/2 {
			return fmt.Errorf("only %d of %d %s requests are feasible", added, n, kind)
		}
		return nil
	}
	paper := func(papers []string, noCache bool) func(i, load int, budget string) map[string]any {
		return func(i, load int, budget string) map[string]any {
			if p := papers[i%len(papers)]; p != "scientific" {
				return map[string]any{"paper": p, "load": load, "maxDowntime": budget, "noCache": noCache}
			}
			return map[string]any{"paper": "scientific", "maxJobTime": fmt.Sprintf("%dh", 40+rng.Intn(60)),
				"bronze": true, "noCache": noCache}
		}
	}
	inline := func(_, load int, budget string) map[string]any {
		return map[string]any{
			"infraSpec":   perturbFig3(rng),
			"serviceSpec": aved.PaperEcommerceSpec,
			"load":        load,
			"maxDowntime": budget,
			"noCache":     true,
		}
	}
	if err := draw("hit", len(hitPapers), paper(hitPapers, false)); err != nil {
		return err
	}
	if err := draw("nocache", 60, paper(missPapers, true)); err != nil {
		return err
	}
	if err := draw("inline", 60, inline); err != nil {
		return err
	}
	for _, body := range []string{
		`{"paper":"apptier","load":1000}`,
		`{"paper":"apptier","load":1000,"maxDowntime":"100m","bogus":1}`,
		`{"paper":"apptier"`,
		`{"paper":"nosuch","load":1000,"maxDowntime":"100m"}`,
	} {
		in.cases = append(in.cases, reqCase{kind: "bad", body: []byte(body), status: http.StatusBadRequest})
	}
	for _, req := range []map[string]any{
		{"paper": "apptier", "load": 1e9, "maxDowntime": "100m"},
		{"paper": "ecommerce", "load": 1e9, "maxDowntime": "100m"},
	} {
		c, err := answerRequest(req)
		if err != nil {
			return err
		}
		if c.status != http.StatusUnprocessableEntity {
			return fmt.Errorf("request %s answers with status %d, want 422", c.body, c.status)
		}
		c.kind = "infeasible"
		in.cases = append(in.cases, c)
	}
	in.byClass = make([][]int, len(mixClasses))
	for i, c := range in.cases {
		for k, mc := range mixClasses {
			if mc.kind == c.kind {
				in.byClass[k] = append(in.byClass[k], i)
			}
		}
	}
	for k, mc := range mixClasses {
		if len(in.byClass[k]) == 0 {
			return fmt.Errorf("no %s requests in the pool", mc.kind)
		}
	}
	return nil
}

// strata returns n values in [0, 1) in seeded order, one drawn from
// each of n equal strata.
func strata(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i, k := range rng.Perm(n) {
		out[i] = (float64(k) + rng.Float64()) / float64(n)
	}
	return out
}

var (
	mtbfRE = regexp.MustCompile(`mtbf=(\d+)d`)
	costRE = regexp.MustCompile(`cost\(\[inactive,active\]\)=\[(\d+) (\d+)\]`)
)

// perturbFig3 scales every MTBF and component price of the Fig 3 spec
// by its own seeded factor in [0.7, 1.3].
func perturbFig3(rng *rand.Rand) string {
	scale := func(s string) string {
		v, _ := strconv.Atoi(s)
		return strconv.Itoa(max(1, int(math.Round(float64(v)*(0.7+0.6*rng.Float64())))))
	}
	src := mtbfRE.ReplaceAllStringFunc(aved.PaperInfrastructureSpec, func(m string) string {
		return "mtbf=" + scale(mtbfRE.FindStringSubmatch(m)[1]) + "d"
	})
	return costRE.ReplaceAllStringFunc(src, func(m string) string {
		p := costRE.FindStringSubmatch(m)
		return fmt.Sprintf("cost([inactive,active])=[%s %s]", scale(p[1]), scale(p[2]))
	})
}

// answerRequest solves a request body's problem with the library, as
// the server's handler would, and records the reply it must get.
func answerRequest(req map[string]any) (reqCase, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return reqCase{}, err
	}
	c := reqCase{body: body, status: http.StatusOK}
	str := func(k string) string { s, _ := req[k].(string); return s }
	var (
		inf *aved.Infrastructure
		svc *aved.Service
	)
	switch {
	case str("infraSpec") != "":
		if inf, err = aved.LoadInfrastructure(str("infraSpec")); err == nil {
			svc, err = aved.LoadService(str("serviceSpec"), inf)
		}
	default:
		if inf, err = aved.PaperInfrastructure(); err != nil {
			break
		}
		switch str("paper") {
		case "apptier":
			svc, err = aved.PaperApplicationTier(inf)
		case "ecommerce":
			svc, err = aved.PaperEcommerce(inf)
		case "scientific":
			svc, err = aved.PaperScientific(inf)
		}
	}
	if err != nil {
		return reqCase{}, fmt.Errorf("request %s: %w", body, err)
	}
	opts := aved.Options{Registry: aved.PaperRegistry()}
	if req["bronze"] == true {
		opts.FixedMechanisms = aved.Bronze()
	}
	var reqs aved.Requirements
	if s := str("maxJobTime"); s != "" {
		d, err := aved.ParseDuration(s)
		if err != nil {
			return reqCase{}, err
		}
		reqs = aved.Requirements{Kind: aved.ReqJob, MaxJobTime: d}
	} else {
		d, err := aved.ParseDuration(str("maxDowntime"))
		if err != nil {
			return reqCase{}, err
		}
		reqs = aved.Requirements{Kind: aved.ReqEnterprise, Throughput: toFloat(req["load"]), MaxAnnualDowntime: d}
	}
	solver, err := aved.NewSolver(inf, svc, opts)
	if err != nil {
		return reqCase{}, err
	}
	sol, err := solver.Solve(reqs)
	var infErr *aved.InfeasibleError
	switch {
	case errors.As(err, &infErr):
		c.status = http.StatusUnprocessableEntity
	case err != nil:
		return reqCase{}, fmt.Errorf("request %s: %w", body, err)
	default:
		c.want = svcAnswer{label: sol.Design.Label(), cost: float64(sol.Cost)}
		if reqs.Kind == aved.ReqEnterprise {
			c.want.down = sol.DowntimeMinutes
		} else {
			c.want.jobHours = sol.JobTime.Hours()
		}
	}
	return c, nil
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// reply is one request's outcome, in nanoseconds since epoch.
type reply struct {
	c                        int // case index
	due, sent, done, checked int64
	cpu                      int64 // process CPU time from sent to checked
	status                   int
	handlerMS                float64 // the reply's elapsedMs, 200s only
	err                      error
}

// send issues case i and checks the reply.
func (in *serviceInst) send(i int, due int64) reply {
	c := &in.cases[i]
	c0 := cpuNow()
	r := reply{c: i, due: due, sent: now()}
	resp, err := in.client.Post(in.url+"/v1/solve", "application/json", bytes.NewReader(c.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
	}
	r.done = now()
	switch {
	case err != nil:
		r.err = err
	case r.status != c.status:
		r.err = fmt.Errorf("%s request %s: status %d, want %d: %s", c.kind, c.body, r.status, c.status, body)
	case r.status == http.StatusOK:
		var got server.SolveResponse
		if err := json.Unmarshal(body, &got); err != nil {
			r.err = fmt.Errorf("%s request %s: %w", c.kind, c.body, err)
			break
		}
		r.handlerMS = got.ElapsedMS
		ans := svcAnswer{label: got.Label, cost: got.CostPerYear, down: got.DowntimeMinutes, jobHours: got.JobTimeHours}
		if ans != c.want {
			r.err = fmt.Errorf("%s request %s: got %+v, want %+v", c.kind, c.body, ans, c.want)
		}
	}
	r.checked, r.cpu = now(), cpuNow()-c0
	return r
}

// mixBlock is the arrival count over which the mix holds its shares
// exactly: arrivals come in blocks of mixBlock, each holding every
// class's share in seeded order, so every stretch of the run offers the
// same mix.
const mixBlock = 50

// phase offers seeded Poisson arrivals at rate for dur from conns
// sender goroutines (one connection each) and returns every reply in
// arrival order. A sender picks up the next arrival when it is free, so
// a slow reply makes later requests late; their latency counts from
// when they were due. Each class cycles through its requests in seeded
// order.
func (in *serviceInst) phase(rate float64, dur time.Duration, conns int, rng *rand.Rand) ([]reply, error) {
	var sched []int64 // due offsets
	var pick []int    // case per arrival
	var block, pending []int
	for k, mc := range mixClasses {
		for range int(math.Round(mc.share * mixBlock)) {
			block = append(block, k)
		}
	}
	order := make([][]int, len(mixClasses))
	seen := make([]int, len(mixClasses))
	for k := range order {
		order[k] = rng.Perm(len(in.byClass[k]))
	}
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		sched = append(sched, int64(t*1e9))
		if len(pending) == 0 {
			pending = append(pending, block...)
			rng.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
		}
		k := pending[0]
		pending = pending[1:]
		pick = append(pick, in.byClass[k][order[k][seen[k]%len(order[k])]])
		seen[k]++
	}
	out := make([]reply, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := now()
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := start + sched[i]
				sleepUntil(due)
				out[i] = in.send(pick[i], due)
			}
		}()
	}
	wg.Wait()
	if len(out) == 0 {
		return nil, errors.New("no arrivals scheduled")
	}
	return out, nil
}

func (in *serviceInst) run(rc *runCtx) error {
	var before map[string]int64
	if rc.trace {
		var err error
		if before, err = in.counters(); err != nil {
			return err
		}
	}
	out, err := in.phase(in.rate, rc.seconds, 1, rand.New(rand.NewSource(in.seed+2)))
	if err != nil {
		return err
	}
	var (
		busy      int64 // summed round trips of the right replies
		lo, start int   // the window's first operation and first reply
		perWindow = 5 * mixBlock
	)
	for i, r := range out {
		rc.op(time.Duration(r.cpu), r.err)
		if r.err == nil {
			busy += r.done - r.sent
		}
		// A short stretch left at the end joins the last window.
		if (i+1-start >= perWindow && len(out)-(i+1) >= perWindow/2) || i+1 == len(out) {
			rc.endWindow(lo)
			lo, start = len(rc.cpu), i+1
		}
	}
	in.noteClasses(rc, out)
	if !rc.trace {
		return nil
	}
	after, err := in.counters()
	if err != nil {
		return err
	}
	in.traceNominal(rc, out, before, after)
	// Tracing adds nothing to a request's path — the counters are read
	// outside the phase — so both rates are the phase's own, and the
	// overhead reads 0 by construction.
	rc.tally.passDone(false, rc.completed(), time.Duration(busy))
	rc.tally.passDone(true, rc.completed(), time.Duration(busy))
	rung := max(250*time.Millisecond, rc.seconds/20)
	maxRPS, err := in.ladder(rc, rung)
	if err != nil {
		return err
	}
	rc.tally.set("max_rps", maxRPS)
	return nil
}

// counters reads the server's metrics registry through GET /metrics.
func (in *serviceInst) counters() (map[string]int64, error) {
	resp, err := in.client.Get(in.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap aved.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return snap.Counters, nil
}

// traceNominal splits each nominal-rate request into generator
// lateness, server handler time (the reply's elapsedMs) and transport
// (the round trip minus the handler), and reads the server's counters
// over the phase from /metrics.
func (in *serviceInst) traceNominal(rc *runCtx, out []reply, before, after map[string]int64) {
	t := rc.tally
	var (
		handler, transport   float64
		ok, s4xx, s429, s5xx int
		late                 = make([]time.Duration, len(out))
	)
	for i, r := range out {
		h := int64(r.handlerMS * 1e6)
		late[i] = time.Duration(r.sent - r.due)
		t.op(ledger{wall: r.checked - r.due, parts: []part{
			{"loadgen.late", r.sent - r.due},
			{"server.handler", h},
			{"server.transport", r.done - r.sent - h},
		}})
		switch {
		case r.status == http.StatusOK:
			ok++
			handler += r.handlerMS
			transport += ms(time.Duration(r.done-r.sent)) - r.handlerMS
		case r.status == http.StatusTooManyRequests:
			s429++
		case r.status >= 500:
			s5xx++
		case r.status >= 400:
			s4xx++
		}
	}
	if ok > 0 {
		t.set("server.handler_ms", handler/float64(ok))
		t.set("server.transport_ms", transport/float64(ok))
	}
	delta := func(k string) float64 { return float64(after[k] - before[k]) }
	if n := delta("server.requests"); n > 0 {
		t.set("server.cache_hit_share", delta("server.cache_hits")/n)
		t.set("server.joined_share", delta("server.singleflight_joined")/n)
	}
	t.set("server.status_4xx", float64(s4xx))
	t.set("server.status_429", float64(s429))
	t.set("server.status_5xx", float64(s5xx))
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	t.set("loadgen.late_p99_ms", ms(late[(len(late)*99+99)/100-1]))
	t.set("loadgen.sent", float64(len(out)))
	t.set("loadgen.max_outstanding", float64(maxOutstanding(out)))
}

// ladder offers the mix at the nominal rate and then at each step of a
// fixed geometric ladder above it, rung seconds each, and returns the
// highest rate whose tail latency stays within tailLimit with no 429: a
// generator falling behind shows there as latency, since requests are
// timed from when they were due. Every other reply is checked, and a
// wrong one counts as failed on rc.
func (in *serviceInst) ladder(rc *runCtx, rung time.Duration) (float64, error) {
	rng := rand.New(rand.NewSource(in.seed + 3))
	best := 0.0
	rate := in.rate
	for k := 0; k < ladderMax; k++ {
		out, err := in.phase(rate, rung, in.conns, rng)
		if err != nil {
			return 0, err
		}
		lat := make([]time.Duration, 0, len(out))
		held := true
		for _, r := range out {
			lat = append(lat, time.Duration(r.checked-r.due))
			if r.status == http.StatusTooManyRequests {
				held = false
				continue
			}
			rc.outcome(r.err)
		}
		tail := slices.Max(lat)
		if len(lat) >= 11 {
			tail, _, _ = tailOf(lat)
		}
		if !held || tail > tailLimit {
			break
		}
		best = rate
		rate *= ladderStep
	}
	return best, nil
}

// maxOutstanding is the most requests due but not yet answered at once.
func maxOutstanding(out []reply) int {
	type ev struct {
		at int64
		d  int
	}
	evs := make([]ev, 0, 2*len(out))
	for _, r := range out {
		evs = append(evs, ev{r.due, 1}, ev{r.checked, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].d < evs[j].d
	})
	cur, best := 0, 0
	for _, e := range evs {
		cur += e.d
		best = max(best, cur)
	}
	return best
}

// noteClasses reports each request class's median latency, so a change
// that speeds one kind of request and slows another shows in the report.
func (in *serviceInst) noteClasses(rc *runCtx, out []reply) {
	by := map[string][]time.Duration{}
	for _, r := range out {
		k := in.cases[r.c].kind
		by[k] = append(by[k], time.Duration(r.checked-r.due))
	}
	for k, lat := range by {
		rc.notes["p50_ms."+k] = ms(median(lat))
		rc.notes["max_ms."+k] = ms(slices.Max(lat))
		rc.notes["n."+k] = len(lat)
	}
}

// timerSlack covers the host timer's granularity (about a millisecond
// on small virtual machines): sleepUntil sleeps until that long before
// the deadline and then yields until it, so arrivals leave on time
// without pinning a CPU the server needs.
const timerSlack = 1500 * time.Microsecond

func sleepUntil(due int64) {
	if wait := time.Duration(due - now()); wait > timerSlack {
		time.Sleep(wait - timerSlack)
	}
	for now() < due {
		runtime.Gosched()
	}
}
