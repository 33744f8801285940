package autotune

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/roofline"
)

// CostFormats are the formats FitCosts fits: every candidate format
// except hybrid, whose prediction is the best of its sub-formats'.
func CostFormats() []string {
	return []string{
		"csr", "csr16", "csr32", "csr-du", "csr-du-rle", "csr-vi",
		"csr-du-vi", "dcsr", "csc", "bcsr2x2", "bcsr4x4", "ell", "cds",
		"vbr", "sym-csr",
	}
}

// costProbeNNZ sizes the microprobe matrices: at most ~16k non-zeros
// keep the matrix and both vectors resident in a typical L2, so the
// timings measure in-core work, not memory traffic. Every shape is
// built at this size and at half of it, so per-slot and per-row or
// per-unit costs separate.
const costProbeNNZ = 1 << 14

// FitCosts is the kernel microprobe: it times every CostFormats kernel
// serially on small cache-resident synthetic matrices and fits each
// format's per-row, per-unit and per-slot cost by least squares on the
// work counts the time model uses (workCounts). The matrices sweep row
// length and CSR-DU unit size (rows of 1–96 non-zeros, cut into units
// of about 5, 12 or whole rows) and, for the diagonal formats, the
// number and spacing of diagonals. Interference on a shared host only
// ever slows a kernel down, so each (matrix, format) time is the
// fastest of costProbeRounds short samples, and the formats of one
// matrix are sampled in rotation so a slow spell hits them all alike.
func FitCosts() (map[string]roofline.Cost, error) {
	names := CostFormats()
	xs := make([][][3]float64, len(names))
	ts := make([][]float64, len(names))
	for _, c := range costProbeMatrices() {
		ft := Extract(c)
		var runs []*spmvTimer
		var idx []int
		for k, name := range names {
			if _, _, feasible, _ := PredictBytes(ft, formats.Spec{Format: name}); !feasible {
				continue
			}
			f, err := formats.Build(name, c)
			if err != nil {
				return nil, fmt.Errorf("autotune: cost probe: %s: %w", name, err)
			}
			r, u, s := workCounts(ft, name)
			xs[k] = append(xs[k], [3]float64{r, u, s})
			runs = append(runs, newSpMVTimer(f))
			idx = append(idx, k)
		}
		for round := 0; round < costProbeRounds; round++ {
			for _, r := range runs {
				r.sample()
			}
		}
		for i, r := range runs {
			ts[idx[i]] = append(ts[idx[i]], r.best*1e9)
		}
	}
	out := make(map[string]roofline.Cost, len(names))
	for k, name := range names {
		coef, err := fitNonNeg(xs[k], ts[k])
		if err != nil {
			return nil, fmt.Errorf("autotune: cost probe: %s: %w", name, err)
		}
		out[name] = roofline.Cost{RowNS: coef[0], UnitNS: coef[1], SlotNS: coef[2]}
	}
	return out, nil
}

// costProbeRounds is how many samples each (matrix, format) gets and
// costProbeSample the minimum wall time of one sample.
const (
	costProbeRounds = 11
	costProbeSample = 400 * time.Microsecond
)

// costProbeMatrices builds the microprobe's sweep, every shape at two
// sizes: a row family for the row-compressed formats and a banded
// family (numerically symmetric, so sym-csr fits too) for the diagonal
// and blocked formats. Values are 200 distinct float32-exact numbers,
// the regime where csr-vi and csr32 are feasible. Deterministic: the
// same seed every run.
func costProbeMatrices() []*core.COO {
	rng := rand.New(rand.NewSource(12))
	value := func() float64 { return float64(rng.Intn(200)+1) / 8 }
	var out []*core.COO
	for _, size := range []int{costProbeNNZ, costProbeNNZ / 2} {
		for _, rowLen := range []int{2, 4, 8, 16, 32, 64} {
			for _, unit := range []int{0, 5, 12} {
				if unit < rowLen/2 {
					out = append(out, rowMatrix(rng, size/rowLen, rowLen, unit, value))
				}
			}
		}
		for _, offs := range [][]int{
			{1}, {1, 2}, {1, 40}, {1, 2, 3, 4}, {1, 40, 1600}, {1, 2, 3, 30, 31, 32},
		} {
			out = append(out, bandMatrix(size/(1+2*len(offs)), offs, value))
		}
	}
	return out
}

// rowMatrix builds rows rows of about rowLen non-zeros over 16k
// columns. Row lengths vary around rowLen and, when unit > 0, a jump
// past 255 follows each entry with probability 1/unit, so the CSR-DU
// encoder cuts units of about that size at random places, as in real
// matrices: the timings then carry the branch mispredictions the
// decode pays there. The other deltas stay in the u8 class.
func rowMatrix(rng *rand.Rand, rows, rowLen, unit int, value func() float64) *core.COO {
	const cols = 1 << 14
	c := core.NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		j := rng.Intn(cols / 8)
		for k := rowLen/2 + rng.Intn(rowLen+1); k > 0 && j < cols; k-- {
			c.Add(i, j, value())
			j += 1 + rng.Intn(3)
			if unit > 0 && rng.Intn(unit) == 0 {
				j += 300 + rng.Intn(100)
			}
		}
	}
	c.Finalize()
	return c
}

// bandMatrix builds a rows×rows matrix with the main diagonal and the
// diagonals ±d for each d in offs, one value per diagonal distance.
func bandMatrix(rows int, offs []int, value func() float64) *core.COO {
	c := core.NewCOO(rows, rows)
	vals := make([]float64, offs[len(offs)-1]+1)
	for d := range vals {
		vals[d] = value()
	}
	for i := 0; i < rows; i++ {
		c.Add(i, i, vals[0])
		for _, d := range offs {
			if i-d >= 0 {
				c.Add(i, i-d, vals[d])
			}
			if i+d < rows {
				c.Add(i, i+d, vals[d])
			}
		}
	}
	c.Finalize()
	return c
}

// spmvTimer times one format's serial SpMV: reps calls per sample,
// calibrated so a sample lasts at least costProbeSample, and the
// fastest per-call time seen so far.
type spmvTimer struct {
	f    core.Format
	x, y []float64
	reps int
	best float64
}

func newSpMVTimer(f core.Format) *spmvTimer {
	t := &spmvTimer{f: f, x: make([]float64, f.Cols()), y: make([]float64, f.Rows()), reps: 1, best: math.Inf(1)}
	for i := range t.x {
		t.x[i] = float64(i%7) - 3
	}
	f.SpMV(t.y, t.x) // warm: faults pages and loads the caches
	for {
		t0 := time.Now()
		for r := 0; r < t.reps; r++ {
			f.SpMV(t.y, t.x)
		}
		if time.Since(t0) >= costProbeSample {
			return t
		}
		t.reps *= 2
	}
}

func (t *spmvTimer) sample() {
	t0 := time.Now()
	for r := 0; r < t.reps; r++ {
		t.f.SpMV(t.y, t.x)
	}
	t.best = min(t.best, time.Since(t0).Seconds()/float64(t.reps))
}

// fitNonNeg fits t ≈ x·coef by least squares weighted to minimise the
// relative error, with every coefficient kept non-negative. With three
// unknowns the exact non-negative optimum is found by enumeration: the
// unconstrained fit over every non-empty subset of the columns that
// are not zero throughout, keeping the all-non-negative solution with
// the lowest weighted residual. Columns outside the winning subset get
// a zero coefficient.
func fitNonNeg(xs [][3]float64, ts []float64) ([3]float64, error) {
	var best [3]float64
	if len(xs) == 0 {
		return best, fmt.Errorf("no feasible probe matrix")
	}
	var used int
	for c := 0; c < 3; c++ {
		if slices.ContainsFunc(xs, func(x [3]float64) bool { return x[c] > 0 }) {
			used |= 1 << c
		}
	}
	bestRes := math.Inf(1)
	for subset := used; subset > 0; subset = (subset - 1) & used {
		var active []int
		for c := 0; c < 3; c++ {
			if subset&(1<<c) != 0 {
				active = append(active, c)
			}
		}
		sol, err := solveWeighted(xs, ts, active)
		if err != nil || slices.ContainsFunc(sol, func(v float64) bool { return v < 0 }) {
			continue
		}
		var coef [3]float64
		for k, c := range active {
			coef[c] = sol[k]
		}
		if r := weightedResidual(xs, ts, coef); r < bestRes {
			best, bestRes = coef, r
		}
	}
	if math.IsInf(bestRes, 1) {
		return best, fmt.Errorf("no non-negative fit")
	}
	return best, nil
}

// weightedResidual is the relative-error sum of squares fitNonNeg
// minimises: Σ ((x·coef − t) / t)².
func weightedResidual(xs [][3]float64, ts []float64, coef [3]float64) float64 {
	var sum float64
	for k, x := range xs {
		e := (x[0]*coef[0] + x[1]*coef[1] + x[2]*coef[2] - ts[k]) / ts[k]
		sum += e * e
	}
	return sum
}

// solveWeighted solves the normal equations of the relative-error
// least-squares problem over the active columns by Gaussian
// elimination with partial pivoting.
func solveWeighted(xs [][3]float64, ts []float64, active []int) ([]float64, error) {
	n := len(active)
	a := make([][]float64, n)
	for r := range a {
		a[r] = make([]float64, n+1)
	}
	for k, x := range xs {
		w := 1 / (ts[k] * ts[k])
		for r, cr := range active {
			for c, cc := range active {
				a[r][c] += w * x[cr] * x[cc]
			}
			a[r][n] += w * x[cr] * ts[k]
		}
	}
	for p := 0; p < n; p++ {
		piv := p
		for r := p + 1; r < n; r++ {
			if math.Abs(a[r][p]) > math.Abs(a[piv][p]) {
				piv = r
			}
		}
		if !(math.Abs(a[piv][p]) > 0) {
			return nil, fmt.Errorf("singular fit")
		}
		a[p], a[piv] = a[piv], a[p]
		for r := 0; r < n; r++ {
			if r == p {
				continue
			}
			f := a[r][p] / a[p][p]
			for c := p; c <= n; c++ {
				a[r][c] -= f * a[p][c]
			}
		}
	}
	sol := make([]float64, n)
	for r := range sol {
		sol[r] = a[r][n] / a[r][r]
	}
	return sol, nil
}
