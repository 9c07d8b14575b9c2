package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The hot path is one
// atomic add; reads snapshot on demand.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are the caller's bug; the type does not
// police them to keep the hot path a bare atomic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load reads the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a set-or-adjust metric carrying a float64 via atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d with a CAS loop.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load reads the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket layout: fixed log-scale (power-of-two) buckets.
// Bucket i has upper bound 2^(histMinExp+i) and counts observations in
// [2^(histMinExp+i-1), 2^(histMinExp+i)); the first bucket also absorbs
// everything below its range and the last everything above. With
// histMinExp = -10 the bounds run from ~0.001 to ~1.7e10, covering
// sub-millisecond cache hits through multi-hour sweeps when
// observations are milliseconds.
const (
	histMinExp  = -10
	histBuckets = 44
)

// Histogram accumulates observations into fixed log-scale buckets.
// Observe is lock-free: a count add, a CAS-folded sum, and one bucket
// add.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	buckets [histBuckets]atomic.Int64
}

// Observe folds one observation in.
func (h *Histogram) Observe(v float64) {
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// bucketOf maps an observation to its bucket index. Non-positive and
// NaN observations land in bucket 0.
func bucketOf(v float64) int {
	if !(v > 0) {
		return 0
	}
	// Frexp: v = frac × 2^exp with frac in [0.5, 1), so 2^exp is the
	// bucket's exclusive upper bound (v = 2^k maps to bound 2^(k+1)).
	_, exp := math.Frexp(v)
	i := exp - histMinExp
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// BucketBound reports bucket i's upper bound.
func BucketBound(i int) float64 {
	return math.Ldexp(1, histMinExp+i)
}

// HistogramSnapshot is a histogram's state at one instant.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"` // non-empty buckets only
}

// BucketSnapshot is one non-empty bucket: its upper bound and count.
type BucketSnapshot struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts,
// reporting each observation as its bucket's upper bound. Zero when
// empty.
func (hs HistogramSnapshot) Quantile(q float64) float64 {
	if hs.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(hs.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range hs.Buckets {
		seen += b.Count
		if seen >= rank {
			return b.Le
		}
	}
	if n := len(hs.Buckets); n > 0 {
		return hs.Buckets[n-1].Le
	}
	return 0
}

func (h *Histogram) snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			hs.Buckets = append(hs.Buckets, BucketSnapshot{Le: BucketBound(i), Count: n})
		}
	}
	return hs
}

// Registry is a concurrent metrics registry. Get-or-create runs under a
// mutex and returns a pointer; subsequent increments on the pointer are
// plain atomics, so the hot path never touches the lock.
//
// All methods are safe on a nil *Registry: get-or-create returns a
// shared discard instance and snapshots are empty, so call sites can
// thread an optional registry without guarding every touch.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Shared discard instances for nil registries. Concurrent garbage
// increments on them are harmless — nothing ever reads them.
var (
	discardCounter   Counter
	discardGauge     Gauge
	discardHistogram Histogram
)

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &discardCounter
	}
	r.mu.Lock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &discardGauge
	}
	r.mu.Lock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	r.mu.Unlock()
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return &discardHistogram
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// Snapshot is a registry's state at one instant, JSON-serializable and
// deterministic (encoding/json sorts map keys).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot reads every metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Load()
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for k, v := range gauges {
			s.Gauges[k] = v.Load()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for k, v := range hists {
			s.Histograms[k] = v.snapshot()
		}
	}
	return s
}

// WriteJSON writes an indented snapshot to w — the -metrics file format
// and the /metrics endpoint body.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
