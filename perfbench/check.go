package main

import (
	"fmt"
	"io"
	"math"
	"sync"
)

// checker counts operations and correctness checks. Every operation the
// benchmark attempts and every check it makes adds one to attempted; a
// failed or refused operation, an unconverged solve or a failed check
// adds one to failed. Any failure fails the command.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	log       io.Writer
	// broken names a check whose outcome is inverted, so tests can show
	// a failing check reaches the exit code.
	broken string
}

func newChecker(log io.Writer, broken string) *checker {
	return &checker{log: log, broken: broken}
}

// check records one named check and reports whether it passed.
func (c *checker) check(name string, ok bool, format string, args ...any) bool {
	if name == c.broken {
		ok = !ok
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "FAIL %s: %s\n", name, fmt.Sprintf(format, args...))
	}
	return ok
}

// op records one attempted operation and whether it succeeded.
func (c *checker) op(name string, err error) bool {
	return c.check(name, err == nil, "%v", err)
}

func (c *checker) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// multiplyMatches applies finegrain.Verify's bound: every entry of y
// within 1e-9 of the serial result, relative to max(1, |want|). A NaN or
// infinite entry never matches.
func multiplyMatches(y, want []float64) (int, bool) {
	for i := range want {
		scale := math.Max(1, math.Abs(want[i]))
		if !(math.Abs(y[i]-want[i]) <= 1e-9*scale) {
			return i, false
		}
	}
	return -1, true
}

// balanced reports whether the heaviest part stays within ε of the
// average load. A 1D model cannot split a row, so it may also carry one
// heaviest row (maxRow nonzeros) beyond that: row granularity passes, a
// real balancing failure does not.
func balanced(loads []int, eps float64, maxRow int) bool {
	total, heaviest := 0, 0
	for _, l := range loads {
		total += l
		heaviest = max(heaviest, l)
	}
	return float64(heaviest) <= (1+eps)*float64(total)/float64(len(loads))+float64(maxRow)+1e-9
}

// relResidual returns ‖b − A·x‖₂ / ‖b‖₂ with the serial multiply.
func relResidual(mulVec func(x, y []float64), x, b []float64) float64 {
	ax := make([]float64, len(b))
	mulVec(x, ax)
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr) / math.Sqrt(bb)
}

// solveTol is the relative residual every solve runs to and every true
// residual is checked against.
const solveTol = 1e-8
