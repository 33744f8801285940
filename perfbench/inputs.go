package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/matgen"
)

// matrix is one generated input: the triplets, the right-hand sides the
// workload multiplies with, and the serial CSR products every answer is
// checked against.
type matrix struct {
	name string
	// format is the format this matrix is hosted in, for workloads that
	// host each matrix once ("" when every format is built).
	format string
	spd    bool
	coo    *core.COO
	csr    core.Format
	xs     [][]float64
	refs   [][]float64
}

// shape names a generator; rows is the target row count.
type shape struct {
	name   string
	kind   string // stencil3d, femlike, random-q200, banded
	rows   int
	format string
}

func generate(rng *rand.Rand, s shape) *core.COO {
	switch s.kind {
	case "stencil3d":
		return matgen.Stencil3D(int(math.Round(math.Cbrt(float64(s.rows)))))
	case "femlike":
		return matgen.FEMLike(rng, s.rows, 5, matgen.Values{})
	case "random-q200":
		return matgen.RandomUniform(rng, s.rows, s.rows, 7, matgen.Values{Unique: 200})
	case "banded":
		return matgen.Banded(rng, s.rows, 30, 6, matgen.Values{})
	}
	panic("perfbench: unknown shape kind " + s.kind)
}

// makeMatrix generates one matrix with nx seeded right-hand sides and their
// serial CSR reference products.
func makeMatrix(rng *rand.Rand, s shape, nx int) (*matrix, error) {
	c := generate(rng, s)
	ref, err := formats.Build("csr", c)
	if err != nil {
		return nil, fmt.Errorf("reference csr for %s: %w", s.name, err)
	}
	m := &matrix{name: s.name, format: s.format, spd: s.kind == "stencil3d", coo: c, csr: ref}
	for k := 0; k < nx; k++ {
		x := make([]float64, c.Cols())
		for i := range x {
			x[i] = 2*rng.Float64() - 1
		}
		y := make([]float64, c.Rows())
		ref.SpMV(y, x)
		m.xs = append(m.xs, x)
		m.refs = append(m.refs, y)
	}
	return m, nil
}

// relTol bounds the difference between a product and its serial CSR
// reference, relative to the largest reference entry. Formats and
// schedules that sum a row in another order differ only by rounding.
const relTol = 1e-10

// checkProduct reports whether y matches ref within relTol.
func checkProduct(y, ref []float64) error {
	if len(y) != len(ref) {
		return fmt.Errorf("product has %d entries, want %d", len(y), len(ref))
	}
	scale := 0.0
	for _, v := range ref {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range y {
		if d := math.Abs(y[i] - ref[i]); !(d <= relTol*scale) {
			return fmt.Errorf("y[%d] = %g, reference %g", i, y[i], ref[i])
		}
	}
	return nil
}

// digest hashes every generated input, so two runs can show they got the
// same (or different) inputs.
func digest(ms []*matrix, extra ...[]byte) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, m := range ms {
		h.Write([]byte(m.name))
		put(uint64(m.coo.Rows()))
		put(uint64(m.coo.Cols()))
		for k := 0; k < m.coo.Len(); k++ {
			i, j, v := m.coo.At(k)
			put(uint64(i))
			put(uint64(j))
			put(math.Float64bits(v))
		}
		for _, x := range m.xs {
			for _, v := range x {
				put(math.Float64bits(v))
			}
		}
	}
	for _, b := range extra {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
