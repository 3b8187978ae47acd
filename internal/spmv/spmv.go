// Package spmv executes a decomposed parallel sparse matrix-vector
// multiplication y = Ax on K simulated processors, following exactly
// the two-phase communication structure the paper's models optimize:
//
//  1. Expand (pre-communication): the owner of x_j sends x_j to every
//     other processor that owns a nonzero in column j.
//  2. Local compute: each processor performs its scalar multiplications
//     y_i^j = a_ij·x_j and accumulates local partial sums.
//  3. Fold (post-communication): every processor holding a partial sum
//     for y_i sends one word to the owner of y_i, which accumulates the
//     final value.
//
// The runtime is split in two phases of its own, matching the paper's
// iterative-solver regime: NewPlan compiles an assignment once into
// flat schedules and preallocated message buffers, and (*Plan).Exec
// runs one multiply reusing all of it with zero steady-state
// allocations.
//
// The simulator counts every vector word that crosses a processor
// boundary and every (sender, receiver, phase) message. Tests assert
// that these counts equal internal/comm's analytic volumes and that the
// numeric result matches the serial kernel — end-to-end evidence that
// the decoded decompositions are executable and the fine-grain cutsize
// is exactly the communication volume.
package spmv

// Result is the outcome of a simulated parallel multiplication. Its
// counters use exactly internal/comm's accounting — words between
// distinct processors, messages per ordered (sender, receiver) pair
// per phase — so TotalWords must equal comm.Stats.TotalVolume and
// TotalMessages must equal comm.Stats.TotalMessages for any valid
// decomposition (asserted end to end by the partition server's
// TestEndToEnd and by finegrain.Verify).
type Result struct {
	// Y is the assembled output vector.
	Y []float64
	// ExpandWords and FoldWords count vector words sent between
	// distinct processors in each phase.
	ExpandWords int
	FoldWords   int
	// ExpandMessages and FoldMessages count point-to-point messages
	// (one per ordered processor pair per phase with any traffic).
	ExpandMessages int
	FoldMessages   int
}

// TotalWords returns the total communication volume in words.
func (r *Result) TotalWords() int { return r.ExpandWords + r.FoldWords }

// TotalMessages returns the total number of point-to-point messages.
func (r *Result) TotalMessages() int { return r.ExpandMessages + r.FoldMessages }
