// Package autotune selects the storage format and scheduler for a
// matrix automatically. It is the repo's realization of ROADMAP item 2
// and of the direction the paper's authors took after CSR-DU/VI: the
// best of the registry's formats depends on measurable structure
// (delta-width histograms, unique-value counts, nnz/row skew, banding,
// blocking, symmetry), so the tuner extracts those features, ranks
// every candidate by predicted seconds per SpMV — the larger of its
// §II-B traffic at the host's bandwidth ceiling and its in-core decode
// work under fitted per-format costs — blends in measured per-host
// priors from the benchmark archive when they are statistically
// significant, and optionally short-probes the top candidates within a
// time budget to let the hardware cast the deciding vote.
package autotune

import (
	"math"
	"slices"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/prof"
	"spmv/internal/varint"
)

// Features are the structural properties of a matrix that drive format
// selection. Every field is derived deterministically from the triplet
// data: extracting twice yields identical values.
type Features struct {
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	NNZ  int `json:"nnz"`

	// Row distribution: non-empty row count, extreme/mean nnz per row,
	// the coefficient of variation across all rows, and the skew ratio
	// max/mean. High skew is what makes static row partitions collapse
	// and nnz splitting or work stealing win.
	NonEmptyRows int     `json:"non_empty_rows"`
	MaxRowNNZ    int     `json:"max_row_nnz"`
	AvgRowNNZ    float64 `json:"avg_row_nnz"`
	RowCV        float64 `json:"row_cv"`
	RowSkew      float64 `json:"row_skew"`

	// Column-delta structure: intra-row column gaps bucketed by the
	// narrowest CSR-DU width class that holds them (u8/u16/u32/u64),
	// and the count of unit-stride gaps (delta == 1).
	DeltaHist [4]int64 `json:"delta_hist"`
	DeltaEq1  int64    `json:"delta_eq1"`

	// Value redundancy: distinct float64 values, distinct values after
	// float32 truncation, whether every value round-trips float32
	// losslessly, and the paper's ttu = nnz/unique indirection ratio.
	Unique     int     `json:"unique"`
	Unique32   int     `json:"unique32"`
	Lossless32 bool    `json:"lossless32"`
	TTU        float64 `json:"ttu"`

	// Bandwidth is the largest |j-i| over the stored entries.
	Bandwidth int `json:"bandwidth"`

	// Symmetry: the fraction of off-diagonal entries whose transposed
	// counterpart exists with the same value (1e-12 relative tolerance,
	// matching sym.FromCOO), and whether the matrix is fully symmetric
	// (square, SymFrac == 1).
	SymFrac   float64 `json:"sym_frac"`
	Symmetric bool    `json:"symmetric"`

	// Diagonal/block structure: entries on the main diagonal, distinct
	// occupied diagonals (the CDS fill driver), and distinct occupied
	// 2x2 / 4x4 blocks (the exact BCSR padding drivers).
	DiagNNZ   int `json:"diag_nnz"`
	Diagonals int `json:"diagonals"`
	Blocks2   int `json:"blocks2"`
	Blocks4   int `json:"blocks4"`

	// Exact simulated CSR-DU control-stream sizes and unit counts
	// (default encoder options, RLE off and on). The sizes make the
	// csr-du family's byte predictions exact rather than modeled; the
	// unit counts drive its per-unit decode cost.
	DUCtlBytes    int64 `json:"du_ctl_bytes"`
	DUCtlBytesRLE int64 `json:"du_ctl_bytes_rle"`
	DUUnits       int64 `json:"du_units"`
	DUUnitsRLE    int64 `json:"du_units_rle"`

	// Approx marks features recovered from an already-built format
	// (ExtractFormat) where the triplet data was not available; only
	// the fields a FormatProfile exposes are populated.
	Approx bool `json:"approx,omitempty"`
}

// Extract computes the feature vector of a triplet matrix. The COO is
// finalized in place if needed. Cost is one flat O(nnz) pass plus two
// radix sorts of the value bits and, for square matrices, a
// counting-sort transpose for the symmetry test.
func Extract(c *core.COO) Features { return extract(c, false) }

// extractLite computes the structural subset that drives per-region
// format choice, skipping the whole-matrix-only symmetry pass.
func extractLite(c *core.COO) Features { return extract(c, true) }

func extract(c *core.COO, lite bool) Features {
	c.Finalize()
	rows, cols, n := c.Rows(), c.Cols(), c.Len()
	ft := Features{Rows: rows, Cols: cols, NNZ: n, Lossless32: true}

	// rowPtr doubles as the per-row counts until the prefix sum below.
	rowPtr := make([]int, rows+1)
	bits := make([]uint64, n)
	bits32 := make([]uint32, n)
	// Block stamps: the finalized order visits each block row's entries
	// contiguously, so a column block is new to the current block row
	// iff its stamp is not yet the block row's (1-based) index.
	stamp2 := make([]int32, cols/2+1)
	stamp4 := make([]int32, cols/4+1)
	// Occupied diagonals j-i, offset into [0, rows+cols-1).
	diags := make([]uint64, (rows+cols+63)/64)
	bw := 0
	prevRow := -1
	prevCol := 0
	for k := 0; k < n; k++ {
		i, j, v := int(c.I[k]), int(c.J[k]), c.V[k]
		rowPtr[i+1]++
		bits[k] = math.Float64bits(v)
		v32 := float32(v)
		bits32[k] = math.Float32bits(v32)
		if !core.SameBits(v, float64(v32)) {
			ft.Lossless32 = false
		}
		if s := int32(i/2 + 1); stamp2[j/2] != s {
			stamp2[j/2] = s
			ft.Blocks2++
		}
		if s := int32(i/4 + 1); stamp4[j/4] != s {
			stamp4[j/4] = s
			ft.Blocks4++
		}
		if d := j - i + rows - 1; diags[d/64]&(1<<(d%64)) == 0 {
			diags[d/64] |= 1 << (d % 64)
			ft.Diagonals++
		}
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
	ft.Unique = distinct(bits, 64)
	ft.Unique32 = distinct(bits32, 32)
	ft.Bandwidth = bw
	if ft.Unique > 0 {
		ft.TTU = float64(ft.NNZ) / float64(ft.Unique)
	}

	var sumN, sumSq float64
	for i := 0; i < rows; i++ {
		n := rowPtr[i+1]
		if n > 0 {
			ft.NonEmptyRows++
		}
		if n > ft.MaxRowNNZ {
			ft.MaxRowNNZ = n
		}
		sumN += float64(n)
		sumSq += float64(n) * float64(n)
		rowPtr[i+1] += rowPtr[i]
	}
	if rows > 0 {
		mean := sumN / float64(rows)
		ft.AvgRowNNZ = mean
		if mean > 0 {
			variance := sumSq/float64(rows) - mean*mean
			if variance > 0 {
				ft.RowCV = math.Sqrt(variance) / mean
			}
			ft.RowSkew = float64(ft.MaxRowNNZ) / mean
		}
	}

	if !lite {
		ft.SymFrac, ft.Symmetric = symmetry(c, rowPtr, ft.DiagNNZ)
	}

	ft.DUCtlBytes, ft.DUUnits = simulateDU(c, csrdu.Options{})
	ft.DUCtlBytesRLE, ft.DUUnitsRLE = simulateDU(c, csrdu.Options{RLE: true})
	return ft
}

// distinct sorts keys (width bits wide) in place and counts its
// distinct values.
func distinct[T uint32 | uint64](keys []T, width uint) int {
	radixSort(keys, width)
	n := 0
	for k := range keys {
		if k == 0 || keys[k] != keys[k-1] {
			n++
		}
	}
	return n
}

// radixSort sorts keys in place: an LSD radix sort on 16-bit digits
// (an even pass count, so the result lands back in keys), skipping a
// digit every key shares. Small inputs use the comparison sort.
func radixSort[T uint32 | uint64](keys []T, width uint) {
	if len(keys) < 1<<12 {
		slices.Sort(keys)
		return
	}
	count := make([]int, 1<<16)
	src, dst := keys, make([]T, len(keys))
	for shift := uint(0); shift < width; shift += 16 {
		clear(count)
		for _, k := range src {
			count[(k>>shift)&0xffff]++
		}
		if count[(src[0]>>shift)&0xffff] == len(src) {
			continue // every key shares this digit
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range src {
			d := (k >> shift) & 0xffff
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// symmetry returns the fraction of off-diagonal entries whose mirror
// entry exists with a matching value, and whether the whole matrix is
// numerically symmetric (the sym.FromCOO admission test). rowPtr is
// the finalized COO's row index; diag its main-diagonal entry count.
func symmetry(c *core.COO, rowPtr []int, diag int) (frac float64, full bool) {
	rows, n := c.Rows(), c.Len()
	if rows != c.Cols() {
		return 0, false
	}
	offDiag := n - diag
	if offDiag == 0 {
		return 1, true
	}
	// Counting-sort transpose: bucketing the row-major entries by column
	// leaves each bucket (a row of the transpose) sorted by column.
	tPtr := make([]int, rows+1)
	for _, j := range c.J {
		tPtr[j+1]++
	}
	for i := 0; i < rows; i++ {
		tPtr[i+1] += tPtr[i]
	}
	next := append([]int(nil), tPtr[:rows]...)
	tCol := make([]int32, n)
	tVal := make([]float64, n)
	for k, j := range c.J {
		p := next[j]
		next[j]++
		tCol[p], tVal[p] = c.I[k], c.V[k]
	}
	matched := 0
	const tol = 1e-12
	for i := 0; i < rows; i++ {
		// Both rows are sorted by column, so a merge walk finds mirrors.
		a, aEnd := rowPtr[i], rowPtr[i+1]
		b, bEnd := tPtr[i], tPtr[i+1]
		for a < aEnd && b < bEnd {
			j1, j2 := c.J[a], tCol[b]
			switch {
			case j1 < j2:
				a++
			case j2 < j1:
				b++
			default:
				v1, v2 := c.V[a], tVal[b]
				if int(j1) != i && math.Abs(v1-v2) <= tol*(1+math.Max(math.Abs(v1), math.Abs(v2))) {
					matched++
				}
				a++
				b++
			}
		}
	}
	frac = float64(matched) / float64(offDiag)
	return frac, matched == offDiag
}

// simulateDU replays the CSR-DU encoder's unit-splitting rules over
// the finalized COO, counting control bytes and units only — no value
// or ctl allocation. The walk mirrors csrdu.encodeRow exactly (greedy
// class extension with MinSwitch widening, the 255-element unit cap,
// RLE run detection, NR/RJMP headers, varint jumps); features_test
// pins it byte-for-byte against the real encoder.
func simulateDU(c *core.COO, opts csrdu.Options) (ctlBytes, units int64) {
	if opts.RLEMin == 0 {
		opts.RLEMin = 6
	}
	if opts.MinSwitch == 0 {
		opts.MinSwitch = 4
	}
	prevRow := -1
	n := c.Len()
	for k := 0; k < n; {
		i0 := int(c.I[k])
		start := k
		for k < n && int(c.I[k]) == i0 {
			k++
		}
		b, u := simulateRow(i0, prevRow, c.J[start:k], opts)
		ctlBytes += b
		units += u
		prevRow = i0
	}
	return ctlBytes, units
}

// simulateRow counts the ctl bytes and units one row would occupy.
func simulateRow(row, prevRow int, cols []int32, opts csrdu.Options) (bytes, units int64) {
	newRow := true
	prevCol := int32(0)
	unitHeader := func(ujmp uint64) {
		units++
		bytes += 2 // uflags + usize
		if newRow && row-prevRow > 1 {
			bytes += int64(varint.Len(uint64(row - prevRow)))
		}
		bytes += int64(varint.Len(ujmp))
	}
	t := 0
	for t < len(cols) {
		if opts.RLE {
			run := 1
			for t+run < len(cols) && run < 255 &&
				cols[t+run]-cols[t+run-1] == cols[t+1]-cols[t] {
				run++
			}
			if run >= opts.RLEMin {
				unitHeader(uint64(cols[t] - prevCol))
				bytes += int64(varint.Len(uint64(cols[t+1] - cols[t])))
				prevCol = cols[t+run-1]
				t += run
				newRow = false
				continue
			}
		}
		start := t
		cls := 0 // ClassU8
		t++
		for t < len(cols) && t-start < 255 {
			if opts.RLE {
				run := 1
				for t+run < len(cols) && run < 255 &&
					cols[t+run]-cols[t+run-1] == cols[t+1]-cols[t] {
					run++
				}
				if run >= opts.RLEMin {
					break
				}
			}
			cc := deltaClass(uint64(cols[t] - cols[t-1]))
			if cc > cls {
				if t-start >= opts.MinSwitch {
					break
				}
				cls = cc
			}
			t++
		}
		unitHeader(uint64(cols[start] - prevCol))
		bytes += int64(t-start-1) * int64(1<<cls)
		prevCol = cols[t-1]
		newRow = false
	}
	return bytes, units
}

// deltaClass mirrors csrdu's width classing: the narrowest class
// (0=u8 .. 3=u64) that holds d.
func deltaClass(d uint64) int {
	switch {
	case d < 1<<8:
		return 0
	case d < 1<<16:
		return 1
	case d < 1<<32:
		return 2
	default:
		return 3
	}
}

// ExtractFormat recovers an approximate feature vector from an
// already-built format via its structural profile, for callers that no
// longer hold the triplets (e.g. a pre-built matfile upload). Only the
// dimensions and the profile-visible compression features are
// populated; Approx is set so downstream consumers know the vector is
// partial.
func ExtractFormat(f core.Format) Features {
	ft := Features{
		Rows: f.Rows(), Cols: f.Cols(), NNZ: f.NNZ(),
		Approx: true,
	}
	p := prof.New(f)
	if p.VI != nil {
		ft.Unique = p.VI.UniqueValues
		ft.TTU = p.VI.TTU
	}
	if p.DU != nil {
		ft.DUCtlBytes = int64(p.DU.CtlBytes)
	}
	return ft
}
