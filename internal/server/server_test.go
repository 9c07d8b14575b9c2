package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aved"
	"aved/internal/scenarios"
)

const apptierBody = `{"paper":"apptier","load":1000,"maxDowntime":"100m"}`

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeSolve(t *testing.T, rec *httptest.ResponseRecorder) *SolveResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body.String())
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &resp
}

func decodeError(t *testing.T, rec *httptest.ResponseRecorder, wantCode int, wantKind string) *ErrorResponse {
	t.Helper()
	if rec.Code != wantCode {
		t.Fatalf("status %d, want %d; body %s", rec.Code, wantCode, rec.Body.String())
	}
	var resp ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding error response: %v", err)
	}
	if resp.Kind != wantKind {
		t.Fatalf("kind %q, want %q (error: %s)", resp.Kind, wantKind, resp.Error)
	}
	return &resp
}

func TestSolveApptier(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	resp := decodeSolve(t, post(t, s.Handler(), "/v1/solve", apptierBody))
	if resp.Label == "" || resp.CostPerYear <= 0 {
		t.Errorf("empty solution: %+v", resp)
	}
	if resp.DowntimeMinutes <= 0 || resp.DowntimeMinutes > 100 {
		t.Errorf("downtime %.2f min outside (0, 100]", resp.DowntimeMinutes)
	}
	if resp.Stats.CandidatesGenerated == 0 || resp.Stats.Evaluations == 0 {
		t.Errorf("missing search stats: %+v", resp.Stats)
	}
	if resp.Cached || resp.Shared {
		t.Errorf("first solve marked cached=%v shared=%v", resp.Cached, resp.Shared)
	}
}

// TestSolveStatsWireMatchesCLI pins the stats object of a markov
// apptier /v1/solve reply to the effort keys of `aved -json` on the
// same problem (cmd/aved's apptier.json golden, which flattens them
// after "tiers"): the same keys in the same order with the same values,
// plus the phaseNanos the always-timed server adds.
func TestSolveStatsWireMatchesCLI(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "cmd", "aved", "testdata", "golden", "apptier.json"))
	if err != nil {
		t.Fatal(err)
	}
	cliKeys, cliVals := objectFields(t, golden)
	want := append(cliKeys[slices.Index(cliKeys, "tiers")+1:], "phaseNanos")

	s := New(Config{})
	defer s.Close()
	rec := post(t, s.Handler(), "/v1/solve", apptierBody)
	var body struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	got, vals := objectFields(t, body.Stats)
	if !slices.Equal(got, want) {
		t.Fatalf("stats keys\n got %v\nwant %v", got, want)
	}
	for _, k := range want[:len(want)-1] {
		if !bytes.Equal(vals[k], cliVals[k]) {
			t.Errorf("stats.%s = %s, aved -json says %s", k, vals[k], cliVals[k])
		}
	}
}

// objectFields returns a JSON object's keys in document order and their
// raw values.
func objectFields(t *testing.T, data []byte) ([]string, map[string]json.RawMessage) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object (%v): %s", err, data)
	}
	var keys []string
	vals := map[string]json.RawMessage{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		vals[tok.(string)] = v
	}
	return keys, vals
}

// TestSolveSearchModesAgree: the explicit exhaustive walk returns the
// same design as the default branch-and-bound, which in turn reports
// bound prunes and strictly fewer engine evaluations.
func TestSolveSearchModesAgree(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	bnb := decodeSolve(t, post(t, h, "/v1/solve", apptierBody))
	ex := decodeSolve(t, post(t, h, "/v1/solve",
		`{"paper":"apptier","load":1000,"maxDowntime":"100m","search":"exhaustive"}`))
	if ex.Cached {
		t.Fatal("exhaustive request hit the bnb cache line")
	}
	if bnb.Label != ex.Label || bnb.CostPerYear != ex.CostPerYear || bnb.DowntimeMinutes != ex.DowntimeMinutes {
		t.Errorf("search modes disagree: bnb %+v vs exhaustive %+v", bnb, ex)
	}
	if bnb.Stats.BoundPruned == 0 {
		t.Errorf("default search reports no bound prunes: %+v", bnb.Stats)
	}
	if ex.Stats.BoundPruned != 0 {
		t.Errorf("exhaustive search reports bound prunes: %+v", ex.Stats)
	}
	if bnb.Stats.Evaluations >= ex.Stats.Evaluations {
		t.Errorf("bnb evaluations %d not below exhaustive %d",
			bnb.Stats.Evaluations, ex.Stats.Evaluations)
	}
}

func TestSolveScientificJob(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	resp := decodeSolve(t, post(t, s.Handler(), "/v1/solve",
		`{"paper":"scientific","maxJobTime":"50h","bronze":true}`))
	if resp.JobTimeHours <= 0 || resp.JobTimeHours > 50 {
		t.Errorf("job time %.2f h outside (0, 50]", resp.JobTimeHours)
	}
}

func TestSolveInlineSpecRejected(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	for name, body := range map[string]string{
		"no specs":       `{"load":1000,"maxDowntime":"100m"}`,
		"no requirement": `{"paper":"apptier"}`,
		"both reqs":      `{"paper":"apptier","load":1,"maxDowntime":"1m","maxJobTime":"1h"}`,
		"unknown paper":  `{"paper":"nope","load":1000,"maxDowntime":"100m"}`,
		"unknown field":  `{"paper":"apptier","load":1000,"maxDowntime":"100m","zzz":1}`,
		"bad engine":     `{"paper":"apptier","load":1000,"maxDowntime":"100m","engine":"quantum"}`,
		"bad search":     `{"paper":"apptier","load":1000,"maxDowntime":"100m","search":"dfs"}`,
		"bad duration":   `{"paper":"apptier","load":1000,"maxDowntime":"100 parsecs"}`,
	} {
		rec := post(t, h, "/v1/solve", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, rec.Code, rec.Body.String())
		}
	}
	// A malformed mechanism cost in an inline Fig. 3 spec is a bind
	// error with its spec position, not an internal failure mid-search.
	infraSpec := strings.Replace(scenarios.InfrastructureSpec,
		"cost(level)=[380 580 760 1500]", "cost(level)=[oops 580 760 1500]", 1)
	body, err := json.Marshal(SolveRequest{InfraSpec: infraSpec, ServiceSpec: scenarios.ApplicationTierSpec,
		Load: 1000, MaxDowntime: "100m"})
	if err != nil {
		t.Fatal(err)
	}
	resp := decodeError(t, post(t, h, "/v1/solve", string(body)), http.StatusBadRequest, "bad_request")
	if !strings.Contains(resp.Error, "spec:") || !strings.Contains(resp.Error, `parse money "oops"`) {
		t.Errorf("error %q lacks the spec position or the bad value", resp.Error)
	}
}

func TestSolveInfeasible(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	rec := post(t, s.Handler(), "/v1/solve", `{"paper":"apptier","load":1e9,"maxDowntime":"100m"}`)
	decodeError(t, rec, http.StatusUnprocessableEntity, "infeasible")
}

// TestSolveDeadlinePrompt pins the acceptance criterion: a request with
// a 1ms deadline returns promptly with a deadline error and partial
// stats, even though the underlying search (a Monte-Carlo engine with a
// large replication budget) would take far longer.
func TestSolveDeadlinePrompt(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	body := `{"paper":"apptier","load":1000,"maxDowntime":"100m",
		"engine":"sim","years":5000,"reps":4096,"timeoutMs":1}`
	start := time.Now()
	rec := post(t, s.Handler(), "/v1/solve", body)
	elapsed := time.Since(start)
	resp := decodeError(t, rec, http.StatusGatewayTimeout, "canceled")
	if elapsed > 10*time.Second {
		t.Errorf("1ms-deadline request took %v", elapsed)
	}
	if resp.Stats == nil {
		t.Error("canceled response carries no partial stats")
	}
}

func TestResponseCache(t *testing.T) {
	s := New(Config{CacheSize: 8})
	defer s.Close()
	h := s.Handler()
	first := decodeSolve(t, post(t, h, "/v1/solve", apptierBody))
	second := decodeSolve(t, post(t, h, "/v1/solve", apptierBody))
	if second.Label != first.Label || second.CostPerYear != first.CostPerYear {
		t.Errorf("cached solve differs: %+v vs %+v", second, first)
	}
	if !second.Cached {
		t.Error("second identical request not served from cache")
	}
	third := decodeSolve(t, post(t, h, "/v1/solve",
		`{"paper":"apptier","load":1000,"maxDowntime":"100m","noCache":true}`))
	if third.Cached {
		t.Error("noCache request served from cache")
	}
}

// TestResponseCacheResolvesEngine: the cache keys the engine a request
// resolves to, not its spelling. The bare request runs the default
// Markov engine; naming it, with the seed the analytic engine ignores,
// is the same solve and must be served from the cache.
func TestResponseCacheResolvesEngine(t *testing.T) {
	s := New(Config{CacheSize: 8})
	defer s.Close()
	h := s.Handler()
	first := decodeSolve(t, post(t, h, "/v1/solve", apptierBody))
	second := decodeSolve(t, post(t, h, "/v1/solve",
		`{"paper":"apptier","load":1000,"maxDowntime":"100m","engine":"markov","seed":1}`))
	if !second.Cached {
		t.Error("request naming the default engine not served from cache")
	}
	if second.Label != first.Label || second.CostPerYear != first.CostPerYear {
		t.Errorf("cached solve differs: %+v vs %+v", second, first)
	}
}

func TestCacheDisabled(t *testing.T) {
	s := New(Config{CacheSize: 0})
	defer s.Close()
	h := s.Handler()
	decodeSolve(t, post(t, h, "/v1/solve", apptierBody))
	if resp := decodeSolve(t, post(t, h, "/v1/solve", apptierBody)); resp.Cached {
		t.Error("cache hit with CacheSize 0")
	}
}

// TestSingleflight holds the only solve slot, fires two identical
// requests (both must queue behind the held slot and share one flight),
// then releases the slot: exactly one search runs and the joiner's
// response is marked Shared.
func TestSingleflight(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: 4, CacheSize: 0})
	defer s.Close()
	h := s.Handler()
	s.sem <- struct{}{} // occupy the slot

	results := make(chan *SolveResponse, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- decodeSolve(t, post(t, h, "/v1/solve", apptierBody))
		}()
		// Order the arrivals so the second request reliably joins the
		// flight the first one registered.
		time.Sleep(100 * time.Millisecond)
	}
	<-s.sem // release; the shared solve proceeds
	wg.Wait()
	close(results)
	var shared, solved int
	for resp := range results {
		if resp.Shared {
			shared++
		} else {
			solved++
		}
	}
	if solved != 1 || shared != 1 {
		t.Errorf("got %d solver(s) and %d sharer(s), want exactly 1 of each", solved, shared)
	}
}

func TestAdmissionOverflow429(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: -1})
	defer s.Close()
	s.sem <- struct{}{} // occupy the only slot; no queue allowed
	rec := post(t, s.Handler(), "/v1/solve", apptierBody)
	decodeError(t, rec, http.StatusTooManyRequests, "overloaded")
	<-s.sem
}

func TestHealthz(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil || hz.Status != "ok" {
		t.Fatalf("healthz body %s (err %v)", rec.Body.String(), err)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status %d, want 503", rec.Code)
	}
}

func TestShutdownRefusesNewWork(t *testing.T) {
	s := New(Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	rec := post(t, s.Handler(), "/v1/solve", apptierBody)
	decodeError(t, rec, http.StatusServiceUnavailable, "overloaded")
}

// TestShutdownDrains starts a solve, then shuts down while it runs: the
// solve must complete (not be aborted) and Shutdown must return only
// after it does.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, CacheSize: 0})
	h := s.Handler()
	s.sem <- struct{}{} // park the request in the queue first
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(apptierBody)))
	}()
	for s.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	<-s.sem // let it start solving
	time.Sleep(10 * time.Millisecond)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The solve replies before it leaves the in-flight count, so the
	// recorder is complete once Shutdown returns, whenever the serving
	// goroutine gets to run again.
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Errorf("Shutdown returned before the in-flight solve finished: status %d, %d body bytes", rec.Code, rec.Body.Len())
	} else if resp := decodeSolve(t, rec); resp.Label == "" {
		t.Error("drained solve returned an empty solution")
	}
	<-served
}

// TestShutdownWaitsForReply shuts down the moment a queued solve gets
// its slot and requires the reply to be written by the time Shutdown
// returns: a request stays counted in flight until it has replied, so
// its writes happen before Shutdown's return and reading the recorder
// here is race-free.
func TestShutdownWaitsForReply(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, CacheSize: 0})
	h := s.Handler()
	s.sem <- struct{}{} // hold the only slot so the solve queues
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(apptierBody)))
	}()
	for s.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	<-s.sem // let it start solving
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Errorf("Shutdown returned before the solve replied: status %d, %d body bytes", rec.Code, rec.Body.Len())
	}
	<-served
}

func TestConcurrentSolves(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, MaxQueue: 64, CacheSize: 16})
	defer s.Close()
	h := s.Handler()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		load := 600 + 100*float64(i%4)
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"paper":"apptier","load":%g,"maxDowntime":"200m"}`, load)
			resp := decodeSolve(t, post(t, h, "/v1/solve", body))
			if resp.CostPerYear <= 0 {
				t.Errorf("load %g: bad cost %v", load, resp.CostPerYear)
			}
		}()
	}
	wg.Wait()
}

func TestSweepFig7(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	rec := post(t, s.Handler(), "/v1/sweep", `{"fig":7,"points":3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status %d, body %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Fig != 7 || len(resp.Fig7) == 0 {
		t.Errorf("empty fig 7 sweep: %+v", resp)
	}
}

// TestEngineWorkersDefault pins the worker count a request's sim
// engine replicates on: the request's own workers, else the server's
// Config.Workers — resolved before the engine is built, for solves and
// sweeps alike. It also pins the wire defaults of the other sim knobs.
func TestEngineWorkersDefault(t *testing.T) {
	var specs []aved.EngineSpec
	defer func(orig func(aved.EngineSpec) (aved.Engine, error)) { newEngine = orig }(newEngine)
	newEngine = func(spec aved.EngineSpec) (aved.Engine, error) {
		specs = append(specs, spec)
		return nil, nil // the default Markov engine keeps the solves fast
	}
	s := New(Config{Workers: 3})
	defer s.Close()
	h := s.Handler()
	sim := `"engine":"sim","years":20,"reps":4`
	decodeSolve(t, post(t, h, "/v1/solve", `{"paper":"apptier","load":1000,"maxDowntime":"100m",`+sim+`}`))
	decodeSolve(t, post(t, h, "/v1/solve", `{"paper":"apptier","load":1000,"maxDowntime":"100m","workers":2,`+sim+`}`))
	if rec := post(t, h, "/v1/sweep", `{"fig":7,"points":2,`+sim+`}`); rec.Code != http.StatusOK {
		t.Fatalf("sweep status %d, body %s", rec.Code, rec.Body.String())
	}
	want := []aved.EngineSpec{
		{Name: "sim", Seed: 1, Years: 20, Reps: 4, Workers: 3},
		{Name: "sim", Seed: 1, Years: 20, Reps: 4, Workers: 2},
		{Name: "sim", Seed: 1, Years: 20, Reps: 4, Workers: 3},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Errorf("engine specs\n got %+v\nwant %+v", specs, want)
	}
}

func TestSweepBadFig(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	rec := post(t, s.Handler(), "/v1/sweep", `{"fig":5}`)
	decodeError(t, rec, http.StatusBadRequest, "bad_request")
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	decodeSolve(t, post(t, h, "/v1/solve", apptierBody))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.requests"] == 0 || snap.Counters["server.ok"] == 0 {
		t.Errorf("request counters missing from snapshot: %v", snap.Counters)
	}
	if snap.Counters["core.solves"] == 0 {
		t.Errorf("solver metrics not wired through: %v", snap.Counters)
	}

	// The same endpoint negotiates the Prometheus text exposition.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics?format=prom status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE server_requests counter\n",
		"# TYPE core_solves counter\n",
		"# TYPE solve_phase_eval histogram\n",
		"solve_phase_eval_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
}

func TestFingerprintStability(t *testing.T) {
	a := SolveRequest{Paper: "apptier", Load: 1000, MaxDowntime: "100m"}
	b := a
	if a.fingerprint() != b.fingerprint() {
		t.Error("identical requests fingerprint differently")
	}
	b.TimeoutMS = 500
	b.NoCache = true
	if a.fingerprint() != b.fingerprint() {
		t.Error("delivery knobs (timeoutMs, noCache) must not change the fingerprint")
	}
	c := a
	c.Load = 1001
	if a.fingerprint() == c.fingerprint() {
		t.Error("different loads share a fingerprint")
	}
	d := a
	d.Engine = "exact"
	if a.fingerprint() == d.fingerprint() {
		t.Error("different engines share a fingerprint")
	}
	m := a
	m.Engine, m.Seed, m.Years = "markov", 7, 5
	if a.fingerprint() != m.fingerprint() {
		t.Error("\"\" and \"markov\" must share a fingerprint whatever the sim knobs")
	}
	if m.Engine = "exact"; d.fingerprint() != m.fingerprint() {
		t.Error("sim knobs changed an exact-engine fingerprint")
	}
	sim1, sim2 := a, a
	sim1.Engine, sim2.Engine = "sim", "sim"
	sim2.Seed = 2
	if sim1.fingerprint() == sim2.fingerprint() {
		t.Error("sim seeds 1 and 2 share a fingerprint")
	}
	if sim2.Seed = 1; sim1.fingerprint() != sim2.fingerprint() {
		t.Error("sim seed 0 and its default 1 fingerprint differently")
	}
	sim2.Years, sim2.Reps = 1000, 32
	if sim1.fingerprint() != sim2.fingerprint() {
		t.Error("sim years and reps defaults fingerprint differently from zero")
	}
	sim2.Reps = 8
	if sim1.fingerprint() == sim2.fingerprint() {
		t.Error("different sim replication counts share a fingerprint")
	}
	e := a
	e.MaxDowntime, e.MaxJobTime = "", "100m" // same string, different field
	if a.fingerprint() == e.fingerprint() {
		t.Error("downtime and job-time requirements share a fingerprint")
	}
	f := a
	f.Search = "bnb" // the default spelled out
	if a.fingerprint() != f.fingerprint() {
		t.Error("\"\" and \"bnb\" search modes must share a fingerprint")
	}
	f.Search = "exhaustive"
	if a.fingerprint() == f.fingerprint() {
		t.Error("different search modes share a fingerprint (cached stats would lie)")
	}
}

func TestFlightGroupLastWaiterCancels(t *testing.T) {
	g := newFlightGroup(0)
	canceled := make(chan struct{})
	f, owner := g.begin(reqFP{1, 2}, func() { close(canceled) })
	if !owner {
		t.Fatal("first begin did not own the flight")
	}
	if j := g.join(reqFP{1, 2}); j != f {
		t.Fatal("join did not find the flight")
	}
	g.leave(f)
	select {
	case <-canceled:
		t.Fatal("cancel fired with a waiter remaining")
	default:
	}
	g.leave(f)
	select {
	case <-canceled:
	case <-time.After(time.Second):
		t.Fatal("cancel did not fire after the last waiter left")
	}
}

func TestFlightGroupCtxErrorNotCached(t *testing.T) {
	g := newFlightGroup(4)
	key := reqFP{3, 4}
	f, _ := g.begin(key, func() {})
	g.settle(key, f, nil, context.DeadlineExceeded, true)
	if _, ok := g.lookup(key); ok {
		t.Error("context-error outcome was cached")
	}
	if g.join(key) != nil {
		t.Error("settled flight still joinable")
	}
	f2, _ := g.begin(key, func() {})
	g.settle(key, f2, &SolveResponse{Label: "x"}, nil, false)
	if resp, ok := g.lookup(key); !ok || resp.Label != "x" {
		t.Error("successful outcome missing from cache")
	}
}

func TestFlightGroupCacheEviction(t *testing.T) {
	g := newFlightGroup(2)
	for i := uint64(0); i < 3; i++ {
		key := reqFP{i, i}
		f, _ := g.begin(key, func() {})
		g.settle(key, f, &SolveResponse{Label: fmt.Sprint(i)}, nil, false)
	}
	if _, ok := g.lookup(reqFP{0, 0}); ok {
		t.Error("oldest entry not evicted at capacity 2")
	}
	for i := uint64(1); i < 3; i++ {
		if _, ok := g.lookup(reqFP{i, i}); !ok {
			t.Errorf("entry %d missing after eviction", i)
		}
	}
}
