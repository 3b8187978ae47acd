package spmv

// BlockCap reports the width pl's block scratch is sized for (0 while
// unallocated), for the external tests.
func BlockCap(pl *Plan) int { return pl.blkCap }
