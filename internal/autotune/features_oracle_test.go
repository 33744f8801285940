package autotune

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

// extractOracle is the map-based feature extractor the flat pass in
// extract replaced, kept verbatim (minus the dropped RCM bandwidth
// pass) as the reference the rewrite is pinned against.
func extractOracle(c *core.COO, lite bool) Features {
	c.Finalize()
	ft := Features{Rows: c.Rows(), Cols: c.Cols(), NNZ: c.Len()}

	rowNNZ := make([]int64, c.Rows())
	uniq := make(map[uint64]struct{})
	uniq32 := make(map[uint32]struct{})
	blocks2 := make(map[uint64]struct{})
	blocks4 := make(map[uint64]struct{})
	diags := make(map[int]struct{})
	ft.Lossless32 = true
	bw := 0
	prevRow := -1
	prevCol := 0
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		rowNNZ[i]++
		uniq[math.Float64bits(v)] = struct{}{}
		uniq32[math.Float32bits(float32(v))] = struct{}{}
		if !core.SameBits(v, float64(float32(v))) {
			ft.Lossless32 = false
		}
		blocks2[uint64(i/2)<<32|uint64(j/2)] = struct{}{}
		blocks4[uint64(i/4)<<32|uint64(j/4)] = struct{}{}
		diags[j-i] = struct{}{}
		if i == j {
			ft.DiagNNZ++
		}
		if d := j - i; d > bw {
			bw = d
		} else if -d > bw {
			bw = -d
		}
		if i == prevRow {
			d := uint64(j - prevCol)
			ft.DeltaHist[deltaClass(d)]++
			if d == 1 {
				ft.DeltaEq1++
			}
		}
		prevRow, prevCol = i, j
	}
	ft.Unique = len(uniq)
	ft.Unique32 = len(uniq32)
	ft.Blocks2 = len(blocks2)
	ft.Blocks4 = len(blocks4)
	ft.Diagonals = len(diags)
	ft.Bandwidth = bw
	if ft.Unique > 0 {
		ft.TTU = float64(ft.NNZ) / float64(ft.Unique)
	}

	var sumN, sumSq float64
	for _, n := range rowNNZ {
		if n > 0 {
			ft.NonEmptyRows++
		}
		if int(n) > ft.MaxRowNNZ {
			ft.MaxRowNNZ = int(n)
		}
		sumN += float64(n)
		sumSq += float64(n) * float64(n)
	}
	if c.Rows() > 0 {
		mean := sumN / float64(c.Rows())
		ft.AvgRowNNZ = mean
		if mean > 0 {
			variance := sumSq/float64(c.Rows()) - mean*mean
			if variance > 0 {
				ft.RowCV = math.Sqrt(variance) / mean
			}
			ft.RowSkew = float64(ft.MaxRowNNZ) / mean
		}
	}

	if !lite {
		ft.SymFrac, ft.Symmetric = symmetryOracle(c)
	}

	ft.DUCtlBytes, ft.DUUnits = simulateDU(c, csrdu.Options{})
	ft.DUCtlBytesRLE, ft.DUUnitsRLE = simulateDU(c, csrdu.Options{RLE: true})
	return ft
}

// symmetryOracle is the comparison-sorted-transpose symmetry test the
// counting-sort walk replaced.
func symmetryOracle(c *core.COO) (frac float64, full bool) {
	if c.Rows() != c.Cols() {
		return 0, false
	}
	diag := 0
	for k := 0; k < c.Len(); k++ {
		if i, j, _ := c.At(k); i == j {
			diag++
		}
	}
	offDiag := c.Len() - diag
	if offDiag == 0 {
		return 1, true
	}
	t := c.Transpose()
	matched := 0
	const tol = 1e-12
	for k, kt := 0, 0; k < c.Len() && kt < t.Len(); {
		i1, j1, v1 := c.At(k)
		i2, j2, v2 := t.At(kt)
		switch {
		case i1 < i2 || (i1 == i2 && j1 < j2):
			k++
		case i2 < i1 || (i1 == i2 && j2 < j1):
			kt++
		default:
			if i1 != j1 && math.Abs(v1-v2) <= tol*(1+math.Max(math.Abs(v1), math.Abs(v2))) {
				matched++
			}
			k++
			kt++
		}
	}
	frac = float64(matched) / float64(offDiag)
	return frac, matched == offDiag
}

// oracleCorpus is the testmat corpus, the package's shared shapes, and
// the perfbench matrix kinds at small scale, plus value patterns the
// flat pass must get right: signed zeros, values that collapse under
// float32 rounding, and a near-symmetric matrix.
func oracleCorpus() map[string]*core.COO {
	out := shapes()
	for _, tc := range testmat.Corpus() {
		out["testmat/"+tc.Name] = tc.COO
	}
	rng := rand.New(rand.NewSource(61))
	out["stencil3d"] = matgen.Stencil3D(9)
	out["femlike-q"] = matgen.FEMLike(rng, 900, 5, matgen.Values{})
	out["random-q200"] = matgen.RandomUniform(rng, 1000, 1000, 7, matgen.Values{Unique: 200})
	out["banded-s"] = matgen.Banded(rng, 700, 30, 6, matgen.Values{})
	out["symmetric"] = matgen.Symmetrize(matgen.RandomUniform(rng, 300, 300, 6, matgen.Values{}))
	near := matgen.Symmetrize(matgen.Banded(rng, 200, 5, 4, matgen.Values{}))
	near.V[near.Len()/2] += 1e-3
	out["near-symmetric"] = near
	odd := core.NewCOO(7, 11)
	for k, v := range []float64{0, math.Copysign(0, -1), 1 + 1e-12, 1, -3.5, 1e-300, 2e-300, 0.1, 0.1 + 1e-17} {
		odd.Add(k%7, (3*k)%11, v)
	}
	odd.Finalize()
	out["odd-values"] = odd
	return out
}

// TestExtractMatchesOracle pins the flat O(nnz) extractor field for
// field against the map-based implementation it replaced, in both the
// full and the per-region (lite) modes.
func TestExtractMatchesOracle(t *testing.T) {
	for name, c := range oracleCorpus() {
		for _, lite := range []bool{false, true} {
			got := extract(c, lite)
			want := extractOracle(c, lite)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (lite=%v):\n got %+v\nwant %+v", name, lite, got, want)
			}
		}
	}
}

// TestRadixSortMatchesSort checks the radix path (inputs past the
// comparison-sort cutoff) against slices.Sort, including inputs whose
// keys share whole digits.
func TestRadixSortMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, n := range []int{5000, 70000} {
		a := make([]uint64, n)
		b := make([]uint32, n)
		for k := range a {
			a[k] = rng.Uint64()
			if k%3 == 0 {
				a[k] &= 0xffff0000ffff // shared zero digits
			}
			b[k] = uint32(rng.Intn(300)) << 16
		}
		wantA, wantB := slices.Clone(a), slices.Clone(b)
		slices.Sort(wantA)
		slices.Sort(wantB)
		radixSort(a, 64)
		radixSort(b, 32)
		if !slices.Equal(a, wantA) || !slices.Equal(b, wantB) {
			t.Fatalf("n=%d: radix sort disagrees with slices.Sort", n)
		}
	}
}
