package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, each = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("x")
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("x").Load(); got != goroutines*each {
		t.Errorf("counter = %d, want %d", got, goroutines*each)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Load(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0.5, 0.9, 1, 3, 1000, 0, -4, math.NaN()} {
		h.Observe(v)
	}
	hs := h.snapshot()
	if hs.Count != 8 {
		t.Fatalf("count = %d, want 8", hs.Count)
	}
	// Buckets are [2^(e-1), 2^e): 0.5 and 0.9 share le=1, the exact
	// power of two 1 lands in le=2, 3 in le=4; the three non-positive
	// observations land in the first bucket.
	want := map[float64]int64{BucketBound(0): 3, 1: 2, 2: 1, 4: 1, 1024: 1}
	for _, b := range hs.Buckets {
		if n, ok := want[b.Le]; ok && n != b.Count {
			t.Errorf("bucket le=%v count = %d, want %d", b.Le, b.Count, n)
		}
	}
	var total int64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != hs.Count {
		t.Errorf("bucket counts sum to %d, count is %d", total, hs.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	hs := h.snapshot()
	// Quantiles report bucket upper bounds: p50 of 1..100 sits in the
	// le=64 bucket, p99 in le=128.
	if q := hs.Quantile(0.5); q != 64 {
		t.Errorf("p50 = %v, want 64", q)
	}
	if q := hs.Quantile(0.99); q != 128 {
		t.Errorf("p99 = %v, want 128", q)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(2)
	s := r.Snapshot()
	if len(s.Counters) != 0 || s.Gauges != nil || s.Histograms != nil {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.solves").Add(3)
	r.Gauge("sweep.total").Set(12)
	r.Histogram("core.solve_ms").Observe(5.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters   map[string]int64             `json:"counters"`
		Gauges     map[string]float64           `json:"gauges"`
		Histograms map[string]HistogramSnapshot `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, buf.String())
	}
	if decoded.Counters["core.solves"] != 3 {
		t.Errorf("counters = %v", decoded.Counters)
	}
	if decoded.Gauges["sweep.total"] != 12 {
		t.Errorf("gauges = %v", decoded.Gauges)
	}
	h := decoded.Histograms["core.solve_ms"]
	if h.Count != 1 || h.Sum != 5.5 || len(h.Buckets) != 1 || h.Buckets[0].Le != 8 {
		t.Errorf("histogram = %+v", h)
	}
}
