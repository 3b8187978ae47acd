package matgen

import (
	"fmt"
	"math"

	"finegrain/internal/sparse"
)

// Family labels the structural family of a catalog matrix.
type Family int

const (
	// FamilyBanded is a FEM-style banded stencil (sherman3).
	FamilyBanded Family = iota
	// FamilyPowerGrid is a power-network topology (bcspwr10).
	FamilyPowerGrid
	// FamilyLP is a linear program with heavy-tailed dense columns
	// (ken, nl, cq9, co9, cre, world, mod2).
	FamilyLP
	// FamilyStaircase is a multistage stochastic LP (pltexpA4-6).
	FamilyStaircase
	// FamilyStructural is a structural-mechanics mesh (vibrobox).
	FamilyStructural
	// FamilyHub is a block structure with high-degree hubs (finan512).
	FamilyHub
)

func (f Family) String() string {
	switch f {
	case FamilyBanded:
		return "banded-fem"
	case FamilyPowerGrid:
		return "power-grid"
	case FamilyLP:
		return "lp"
	case FamilyStaircase:
		return "staircase-lp"
	case FamilyStructural:
		return "structural"
	case FamilyHub:
		return "hub-block"
	}
	return "unknown"
}

// Spec describes one of the paper's test matrices (Table 1): its name,
// dimension, nonzero count, pooled per-row/column degree extremes and
// average, and the structural family its generator uses.
type Spec struct {
	Name   string
	N      int
	NNZ    int
	MinDeg int
	MaxDeg int
	AvgDeg float64
	Family Family
	// LP holds family-specific structure parameters (FamilyLP and
	// FamilyStaircase only); zero values select defaults.
	LP LPParams
}

// LPParams tunes the LP generator's structure. The defaults model a
// general LP with moderate inter-block coupling; multicommodity-flow
// matrices (the ken family) are nearly block-diagonal apart from their
// dense linking rows, which is where the paper's largest 2D gains come
// from.
type LPParams struct {
	// RowTail and ColTail are the lognormal sigmas of the degree
	// tails (0 = defaults 0.9 / 1.0).
	RowTail, ColTail float64
	// LocalProb is the probability a sparse row's entry stays within
	// its diagonal block (the rest go to per-block anchor regions);
	// 0 = default 0.8.
	LocalProb float64
	// PlantedRowFrac and PlantedColFrac plant explicit linking rows /
	// columns: ⌈frac·n⌉ rows (columns) get a degree drawn from
	// [maxDeg/2, maxDeg], modeling the capacity/GUB constraints of
	// block-angular LPs. 0 plants only the single Table-1 max row.
	PlantedRowFrac, PlantedColFrac float64
}

// Catalog lists the paper's 14 test matrices in Table 1 order
// (increasing nonzero count).
func Catalog() []Spec {
	return []Spec{
		{Name: "sherman3", N: 5005, NNZ: 20033, MinDeg: 1, MaxDeg: 7, AvgDeg: 4.00, Family: FamilyBanded},
		{Name: "bcspwr10", N: 5300, NNZ: 21842, MinDeg: 2, MaxDeg: 14, AvgDeg: 4.12, Family: FamilyPowerGrid},
		{Name: "ken-11", N: 14694, NNZ: 82454, MinDeg: 2, MaxDeg: 243, AvgDeg: 5.61, Family: FamilyLP,
			LP: LPParams{RowTail: 0.4, LocalProb: 0.98, PlantedRowFrac: 0.010, PlantedColFrac: 0.003}},
		{Name: "nl", N: 7039, NNZ: 105089, MinDeg: 1, MaxDeg: 361, AvgDeg: 14.93, Family: FamilyLP,
			LP: LPParams{LocalProb: 0.9, PlantedRowFrac: 0.006, PlantedColFrac: 0.004}},
		{Name: "ken-13", N: 28632, NNZ: 161804, MinDeg: 2, MaxDeg: 339, AvgDeg: 5.65, Family: FamilyLP,
			LP: LPParams{RowTail: 0.4, LocalProb: 0.98, PlantedRowFrac: 0.010, PlantedColFrac: 0.003}},
		{Name: "cq9", N: 9278, NNZ: 221590, MinDeg: 1, MaxDeg: 702, AvgDeg: 23.88, Family: FamilyLP,
			LP: LPParams{LocalProb: 0.9, PlantedRowFrac: 0.006, PlantedColFrac: 0.004}},
		{Name: "co9", N: 10789, NNZ: 249205, MinDeg: 1, MaxDeg: 707, AvgDeg: 23.10, Family: FamilyLP,
			LP: LPParams{LocalProb: 0.9, PlantedRowFrac: 0.006, PlantedColFrac: 0.004}},
		{Name: "pltexpA4-6", N: 26894, NNZ: 269736, MinDeg: 5, MaxDeg: 204, AvgDeg: 10.03, Family: FamilyStaircase},
		{Name: "vibrobox", N: 12328, NNZ: 342828, MinDeg: 9, MaxDeg: 121, AvgDeg: 27.81, Family: FamilyStructural},
		{Name: "cre-d", N: 8926, NNZ: 372266, MinDeg: 1, MaxDeg: 845, AvgDeg: 41.71, Family: FamilyLP,
			LP: LPParams{LocalProb: 0.9, PlantedRowFrac: 0.006, PlantedColFrac: 0.004}},
		{Name: "cre-b", N: 9648, NNZ: 398806, MinDeg: 1, MaxDeg: 904, AvgDeg: 41.34, Family: FamilyLP,
			LP: LPParams{LocalProb: 0.9, PlantedRowFrac: 0.006, PlantedColFrac: 0.004}},
		{Name: "world", N: 34506, NNZ: 582064, MinDeg: 1, MaxDeg: 972, AvgDeg: 16.87, Family: FamilyLP,
			LP: LPParams{LocalProb: 0.9, PlantedRowFrac: 0.006, PlantedColFrac: 0.004}},
		{Name: "mod2", N: 34774, NNZ: 604910, MinDeg: 1, MaxDeg: 941, AvgDeg: 17.40, Family: FamilyLP,
			LP: LPParams{LocalProb: 0.9, PlantedRowFrac: 0.006, PlantedColFrac: 0.004}},
		{Name: "finan512", N: 74752, NNZ: 615774, MinDeg: 3, MaxDeg: 1449, AvgDeg: 8.24, Family: FamilyHub},
	}
}

// Lookup returns the catalog spec with the given name.
func Lookup(name string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("matgen: unknown catalog matrix %q", name)
}

// Scaled returns a resized copy of the spec, named "X@scale": the
// dimension is multiplied by scale (floored at 64) while the average
// degree and — crucially — the absolute degree extremes are preserved
// (capped at a third of the dimension, which binds only when
// shrinking), and NNZ becomes AvgDeg·N. Preserving absolute degrees
// keeps the paper's effect intact at any scale: the fine-grain model's
// advantage on a dense row of degree d comes from paying ≤ K−1 words
// where a 1D rowwise decomposition pays up to d, a gap driven by d
// versus K, not by d versus the matrix dimension. Scale 1 returns the
// spec unchanged.
func (s Spec) Scaled(scale float64) Spec {
	if scale == 1 {
		return s
	}
	out := s
	out.Name = fmt.Sprintf("%s@%.2g", s.Name, scale)
	out.N = int(math.Round(float64(s.N) * scale))
	if out.N < 64 {
		out.N = 64
	}
	if cap := out.N / 3; out.MaxDeg > cap {
		out.MaxDeg = cap
	}
	if out.MaxDeg < s.MinDeg+2 {
		out.MaxDeg = s.MinDeg + 2
	}
	if avgCeil := float64(out.MaxDeg); s.AvgDeg > avgCeil {
		out.AvgDeg = avgCeil
	}
	out.NNZ = int(math.Round(out.AvgDeg * float64(out.N)))
	return out
}

// Generate builds a matrix matching the spec's structural profile.
// Different seeds give structurally independent instances of the same
// profile.
func (s Spec) Generate(seed uint64) *sparse.CSR {
	switch s.Family {
	case FamilyBanded:
		band := s.N / 90
		if band < 4 {
			band = 4
		}
		return Banded(s.N, s.MinDeg, s.MaxDeg, s.AvgDeg, band, seed)
	case FamilyPowerGrid:
		return PowerGrid(s.N, s.MinDeg, s.MaxDeg, s.AvgDeg, seed)
	case FamilyLP:
		// Local block size: small enough that several whole blocks fit
		// in one part even at K = 64.
		window := s.N / 128
		if window < 16 {
			window = 16
		}
		return LP(s.N, s.MinDeg, s.MaxDeg, s.AvgDeg, s.LP, window, seed)
	case FamilyStaircase:
		return Staircase(s.N, s.MinDeg, s.MaxDeg, s.AvgDeg, s.N/40+8, seed)
	case FamilyStructural:
		return Structural(s.N, s.MinDeg, s.MaxDeg, s.AvgDeg, seed)
	case FamilyHub:
		hubs := s.N / 2000
		if hubs < 2 {
			hubs = 2
		}
		return Hubs(s.N, s.MinDeg, s.MaxDeg, s.AvgDeg, hubs, seed)
	}
	panic(fmt.Sprintf("matgen: unknown family %v", s.Family))
}
