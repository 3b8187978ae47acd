// Package comm measures the actual communication requirements of a
// decoded matrix decomposition — the quantities the paper's Table 2
// reports for all three models. The measurement is model-independent: it
// looks only at which processor owns each nonzero and each vector entry,
// so the exact hypergraph models and the approximate graph model are
// judged by the same yardstick (which is how the paper exposes the graph
// model's flaw).
//
// Expand phase (pre-communication): for every column j, the owner of
// x_j sends one word to every other processor that owns at least one
// nonzero in column j.
//
// Fold phase (post-communication): for every row i, every processor
// other than the owner of y_i that owns at least one nonzero in row i
// sends one partial-sum word to the owner.
//
// Messages aggregate per ordered processor pair per phase: all x words
// from p to q travel in one expand message, all partial-y words from p
// to q in one fold message — the paper's "average number of messages
// handled by a single processor" is the total message count divided by
// K, whose theoretical maximum is K−1 for 1D models and 2(K−1) for the
// fine-grain model.
package comm

import (
	"fmt"

	"finegrain/internal/core"
)

// Stats is the full communication profile of a decomposition.
type Stats struct {
	K int

	// Volumes in words.
	ExpandVolume int
	FoldVolume   int
	TotalVolume  int

	// Per-processor volumes. SendVolume sums to TotalVolume (each word
	// attributed to its sender); RecvVolume likewise to receivers.
	SendVolume    []int
	RecvVolume    []int
	MaxSendVolume int
	MaxRecvVolume int

	// Message counts: ordered (sender, receiver) pairs per phase.
	ExpandMessages int
	FoldMessages   int
	TotalMessages  int
	// AvgMessagesPerProc is TotalMessages / K (the paper's
	// "avg #msgs" column).
	AvgMessagesPerProc float64
	// MaxMessagesPerProc is the maximum over processors of messages
	// sent plus received.
	MaxMessagesPerProc int

	// Computational load: scalar multiplies per processor.
	Loads        []int
	MaxLoad      int
	ImbalancePct float64
}

// ScaledTotalVolume returns TotalVolume divided by the matrix dimension
// — Table 2's "tot" column ("communication volume values ... are scaled
// by the number of rows/columns of the respective test matrices").
func (s *Stats) ScaledTotalVolume(m int) float64 {
	return float64(s.TotalVolume) / float64(m)
}

// ScaledMaxVolume returns MaxSendVolume divided by the matrix dimension
// — Table 2's "max" column.
func (s *Stats) ScaledMaxVolume(m int) float64 {
	return float64(s.MaxSendVolume) / float64(m)
}

// Measure computes the communication profile of a decomposition.
func Measure(asg *core.Assignment) (*Stats, error) {
	if err := asg.Validate(); err != nil {
		return nil, fmt.Errorf("comm: %w", err)
	}
	k := asg.K
	a := asg.A
	s := &Stats{
		K:          k,
		SendVolume: make([]int, k),
		RecvVolume: make([]int, k),
	}

	// Owner parts per column and per row, via one pass over nonzeros.
	// colParts[j] / rowParts[i] are deduplicated with epoch stamps.
	stamp := make([]int, k)
	for i := range stamp {
		stamp[i] = -1
	}
	epoch := 0

	// expandPairs[p*k+q]: an expand message p→q exists.
	expandPairs := make([]bool, k*k)
	foldPairs := make([]bool, k*k)

	// Fold: iterate rows directly over CSR.
	for i := 0; i < a.Rows; i++ {
		owner := asg.YOwner[i]
		epoch++
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			part := asg.NonzeroOwner[p]
			if part == owner || stamp[part] == epoch {
				continue
			}
			stamp[part] = epoch
			s.FoldVolume++
			s.SendVolume[part]++
			s.RecvVolume[owner]++
			foldPairs[part*k+owner] = true
		}
	}

	// Expand: iterate columns; build per-column part sets from the
	// transposed structure to stay cache-friendly.
	colOwners := make([][]int32, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			colOwners[j] = append(colOwners[j], int32(asg.NonzeroOwner[p]))
		}
	}
	for j := 0; j < a.Cols; j++ {
		owner := asg.XOwner[j]
		epoch++
		for _, part32 := range colOwners[j] {
			part := int(part32)
			if part == owner || stamp[part] == epoch {
				continue
			}
			stamp[part] = epoch
			s.ExpandVolume++
			s.SendVolume[owner]++
			s.RecvVolume[part]++
			expandPairs[owner*k+part] = true
		}
	}

	s.Finish(expandPairs, foldPairs, asg.Loads())
	return s, nil
}

// Finish completes a profile whose phase volumes and per-processor
// SendVolume/RecvVolume are filled in: it derives the totals and
// maxima, the message counts from the phase pair matrices
// (expandPairs[p*K+q]: a message p→q exists), and the load balance of
// loads. Measure and spgemm.Measure both end here.
func (s *Stats) Finish(expandPairs, foldPairs []bool, loads []int) {
	k := s.K
	s.TotalVolume = s.ExpandVolume + s.FoldVolume
	for _, v := range s.SendVolume {
		if v > s.MaxSendVolume {
			s.MaxSendVolume = v
		}
	}
	for _, v := range s.RecvVolume {
		if v > s.MaxRecvVolume {
			s.MaxRecvVolume = v
		}
	}

	sent := make([]int, k)
	recv := make([]int, k)
	for p := 0; p < k; p++ {
		for q := 0; q < k; q++ {
			if expandPairs[p*k+q] {
				s.ExpandMessages++
				sent[p]++
				recv[q]++
			}
			if foldPairs[p*k+q] {
				s.FoldMessages++
				sent[p]++
				recv[q]++
			}
		}
	}
	s.TotalMessages = s.ExpandMessages + s.FoldMessages
	s.AvgMessagesPerProc = float64(s.TotalMessages) / float64(k)
	for p := 0; p < k; p++ {
		if h := sent[p] + recv[p]; h > s.MaxMessagesPerProc {
			s.MaxMessagesPerProc = h
		}
	}

	s.Loads = loads
	total := 0
	for _, l := range s.Loads {
		total += l
		if l > s.MaxLoad {
			s.MaxLoad = l
		}
	}
	if total > 0 {
		avg := float64(total) / float64(k)
		s.ImbalancePct = 100 * (float64(s.MaxLoad) - avg) / avg
	}
}
