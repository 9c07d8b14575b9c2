// Package markov implements the continuous-time Markov chain machinery
// behind Aved's "simplified Markov model" availability engine: a dense
// generator representation with a steady-state solver (Gaussian
// elimination with partial pivoting) and a product-form fast path for
// birth–death chains, which is the structure the per-failure-mode tier
// models take.
package markov

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular reports that the chain's steady state is not unique,
// typically because the chain is reducible.
var ErrSingular = errors.New("markov: singular system (chain may be reducible)")

// Chain is a finite continuous-time Markov chain held as a dense
// generator matrix Q: q[i][j] is the transition rate from state i to
// state j (i ≠ j), and q[i][i] is minus the total outflow rate.
type Chain struct {
	n int
	q [][]float64
}

// NewChain builds a chain with n states and no transitions.
func NewChain(n int) (*Chain, error) {
	if n < 1 {
		return nil, fmt.Errorf("markov: chain needs at least one state, got %d", n)
	}
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	return &Chain{n: n, q: q}, nil
}

// N reports the number of states.
func (c *Chain) N() int { return c.n }

// Rate reports the transition rate from state i to state j.
func (c *Chain) Rate(i, j int) float64 { return c.q[i][j] }

// SetRate sets the transition rate from state i to state j, adjusting
// the diagonal so rows keep summing to zero.
func (c *Chain) SetRate(i, j int, rate float64) error {
	if i < 0 || i >= c.n || j < 0 || j >= c.n {
		return fmt.Errorf("markov: state (%d,%d) outside chain of %d states", i, j, c.n)
	}
	if i == j {
		return fmt.Errorf("markov: cannot set a self-transition rate (state %d)", i)
	}
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("markov: rate %v from %d to %d must be finite and non-negative", rate, i, j)
	}
	old := c.q[i][j]
	c.q[i][j] = rate
	c.q[i][i] -= rate - old
	return nil
}

// AddRate adds to the transition rate from state i to state j.
func (c *Chain) AddRate(i, j int, rate float64) error {
	if i < 0 || i >= c.n || j < 0 || j >= c.n || i == j {
		return fmt.Errorf("markov: bad transition (%d,%d) in chain of %d states", i, j, c.n)
	}
	return c.SetRate(i, j, c.q[i][j]+rate)
}

// SteadyState solves πQ = 0 with Σπ = 1 and reports the stationary
// distribution. The chain must be irreducible (one recurrent class).
func (c *Chain) SteadyState() ([]float64, error) {
	n := c.n
	if n == 1 {
		return []float64{1}, nil
	}
	// Build A = Qᵀ with the last equation replaced by normalisation.
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			a[i][j] = c.q[j][i]
		}
	}
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	a[n-1][n] = 1
	if err := gaussianSolve(a); err != nil {
		return nil, err
	}
	pi := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		v := a[i][n]
		if v < 0 {
			// Tolerate tiny negative round-off; reject real negatives.
			if v < -1e-9 {
				return nil, fmt.Errorf("markov: negative steady-state probability %v in state %d", v, i)
			}
			v = 0
		}
		pi[i] = v
		sum += v
	}
	if sum <= 0 || math.IsNaN(sum) {
		return nil, ErrSingular
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi, nil
}

// gaussianSolve reduces the augmented system in place and back-
// substitutes the solution into the last column.
func gaussianSolve(a [][]float64) error {
	n := len(a)
	for col := 0; col < n; col++ {
		// Partial pivoting.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv := 1 / a[col][col]
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			factor := a[r][col] * inv
			for k := col; k <= n; k++ {
				a[r][k] -= factor * a[col][k]
			}
		}
	}
	for i := 0; i < n; i++ {
		a[i][n] /= a[i][i]
		a[i][i] = 1
	}
	return nil
}

// BirthDeathSteadyState reports the stationary distribution of a
// birth–death chain over states 0..n where birth[j] is the rate j→j+1
// (len n) and death[j] is the rate j+1→j (len n). States beyond a zero
// birth rate are unreachable and get probability zero.
func BirthDeathSteadyState(birth, death []float64) ([]float64, error) {
	if len(birth) != len(death) {
		return nil, fmt.Errorf("markov: birth–death needs matching rate slices, got %d and %d", len(birth), len(death))
	}
	pi := make([]float64, len(birth)+1)
	if err := BirthDeathSteadyStateInto(pi, birth, death); err != nil {
		return nil, err
	}
	return pi, nil
}

// BirthDeathSteadyStateInto is the allocation-free variant of
// BirthDeathSteadyState: it writes the stationary distribution into
// dst, which must have length len(birth)+1. Every element of dst is
// overwritten, so callers may feed reused scratch; the arithmetic is
// identical to BirthDeathSteadyState, bit for bit.
func BirthDeathSteadyStateInto(dst, birth, death []float64) error {
	if len(birth) != len(death) {
		return fmt.Errorf("markov: birth–death needs matching rate slices, got %d and %d", len(birth), len(death))
	}
	if len(dst) != len(birth)+1 {
		return fmt.Errorf("markov: birth–death destination needs %d states, got %d", len(birth)+1, len(dst))
	}
	return birthDeathSolve(dst, birth, death)
}

// birthDeathSolve is the product-form recurrence behind both entry
// points: lengths are already validated (len(pi) == len(birth)+1 ==
// len(death)+1).
func birthDeathSolve(pi, birth, death []float64) error {
	n := len(birth)
	pi[0] = 1
	cur := 1.0
	for j := 0; j < n; j++ {
		b, d := birth[j], death[j]
		if b < 0 || d < 0 || math.IsNaN(b) || math.IsNaN(d) {
			return fmt.Errorf("markov: birth–death rates must be non-negative, got b[%d]=%v d[%d]=%v", j, b, j, d)
		}
		if b == 0 {
			// Remaining states are unreachable.
			cur = 0
		} else {
			if d == 0 {
				return fmt.Errorf("markov: state %d is absorbing (death rate 0 with positive birth rate)", j+1)
			}
			cur *= b / d
		}
		pi[j+1] = cur
	}
	var sum float64
	for _, v := range pi {
		sum += v
	}
	if sum <= 0 || math.IsInf(sum, 0) || math.IsNaN(sum) {
		return fmt.Errorf("markov: birth–death normalisation failed (sum %v)", sum)
	}
	for i := range pi {
		pi[i] /= sum
	}
	return nil
}

// BirthDeathChain materialises a birth–death chain as a dense Chain,
// which lets tests cross-check the product form against the general
// solver.
func BirthDeathChain(birth, death []float64) (*Chain, error) {
	if len(birth) != len(death) {
		return nil, fmt.Errorf("markov: birth–death needs matching rate slices, got %d and %d", len(birth), len(death))
	}
	c, err := NewChain(len(birth) + 1)
	if err != nil {
		return nil, err
	}
	for j := range birth {
		if err := c.SetRate(j, j+1, birth[j]); err != nil {
			return nil, err
		}
		if err := c.SetRate(j+1, j, death[j]); err != nil {
			return nil, err
		}
	}
	return c, nil
}
