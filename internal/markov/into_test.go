package markov

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestBirthDeathIntoBitIdentical: the write-into-dst variant must
// produce exactly the floats of the allocating one — it is the same
// arithmetic, and the avail engine's scratch reuse depends on that.
func TestBirthDeathIntoBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		birth := make([]float64, n)
		death := make([]float64, n)
		for i := range birth {
			birth[i] = rng.Float64() * 5
			death[i] = 0.01 + rng.Float64()*5
		}
		want, err := BirthDeathSteadyState(birth, death)
		if err != nil {
			return false
		}
		// Poison dst so any skipped element shows up as garbage.
		dst := make([]float64, n+1)
		for i := range dst {
			dst[i] = -1
		}
		if err := BirthDeathSteadyStateInto(dst, birth, death); err != nil {
			return false
		}
		for i := range want {
			if dst[i] != want[i] { // bitwise, not approximate
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBirthDeathIntoValidation(t *testing.T) {
	birth := []float64{1, 1}
	death := []float64{1, 1}
	if err := BirthDeathSteadyStateInto(make([]float64, 2), birth, death); err == nil {
		t.Error("short dst accepted")
	}
	if err := BirthDeathSteadyStateInto(make([]float64, 4), birth, death); err == nil {
		t.Error("long dst accepted")
	}
	if err := BirthDeathSteadyStateInto(make([]float64, 3), birth, death[:1]); err == nil {
		t.Error("mismatched birth/death accepted")
	}
	// No transitions is a valid single-state chain: π = [1].
	single := []float64{-7}
	if err := BirthDeathSteadyStateInto(single, nil, nil); err != nil || single[0] != 1 {
		t.Errorf("empty chain: err=%v pi=%v, want nil and [1]", err, single)
	}
	// A zero birth rate truncates the distribution: the states past it
	// are unreachable and get exactly zero mass, poisoned dst included.
	tail := []float64{-7, -7, -7, -7}
	if err := BirthDeathSteadyStateInto(tail, []float64{2, 0, 5}, []float64{4, 1, 1}); err != nil {
		t.Fatalf("unreachable tail: %v", err)
	}
	if tail[2] != 0 || tail[3] != 0 || tail[0] != 2.0/3.0 || tail[1] != 1.0/3.0 {
		t.Errorf("unreachable tail: pi=%v, want [2/3 1/3 0 0]", tail)
	}
	// A positive birth rate into a zero death rate is absorbing.
	err := BirthDeathSteadyStateInto(make([]float64, 3), []float64{1, 1}, []float64{3, 0})
	if err == nil || !strings.Contains(err.Error(), "absorbing") {
		t.Errorf("absorbing chain: got %v, want an absorbing-state error", err)
	}
}

// TestBirthDeathIntoAllocFree pins the point of the variant: solving
// into caller-owned storage does not allocate.
func TestBirthDeathIntoAllocFree(t *testing.T) {
	birth := []float64{2, 1.5, 1, 0.5}
	death := []float64{1, 2, 3, 4}
	dst := make([]float64, len(birth)+1)
	allocs := testing.AllocsPerRun(200, func() {
		if err := BirthDeathSteadyStateInto(dst, birth, death); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("BirthDeathSteadyStateInto allocates %.1f objects per run, want 0", allocs)
	}
}

func BenchmarkBirthDeathSteadyState(b *testing.B) {
	birth := []float64{4, 3, 2, 1, 0.5, 0.25}
	death := []float64{1, 2, 3, 4, 5, 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BirthDeathSteadyState(birth, death); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBirthDeathSteadyStateInto(b *testing.B) {
	birth := []float64{4, 3, 2, 1, 0.5, 0.25}
	death := []float64{1, 2, 3, 4, 5, 6}
	dst := make([]float64, len(birth)+1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := BirthDeathSteadyStateInto(dst, birth, death); err != nil {
			b.Fatal(err)
		}
	}
}
