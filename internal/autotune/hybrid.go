package autotune

import (
	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/formats"
	"spmv/internal/hybrid"
	"spmv/internal/roofline"
)

// regionFormats are the candidate formats for one hybrid row block, in
// deterministic preference order for ties. Whole-matrix-only schemes
// (sym-csr, csc, hybrid itself) and lossy csr32 are excluded.
var regionFormats = []string{
	"csr", "csr16", "csr-du", "csr-du-rle", "csr-vi", "csr-du-vi",
	"bcsr2x2", "bcsr4x4", "ell", "cds",
}

// BuildHybrid builds a hybrid matrix whose per-region formats are
// chosen by the analytic time model instead of the registry's fixed
// build-all-and-compare heuristic: each row block gets the format the
// model predicts fastest for that block's own features.
func BuildHybrid(c *core.COO) (*hybrid.Matrix, error) {
	return hybrid.FromCOOSelect(c, hybrid.DefaultBlockRows, RegionSelector())
}

// RegionSelector returns the autotuned per-region format selector: it
// extracts the block's features (the cheap structural subset — no
// symmetry pass, which only informs whole-matrix choices) and builds
// the feasible format with the smallest predicted seconds under the
// default model (Tune's score at one thread: each region runs as one
// serial piece of work). A block whose winning format unexpectedly
// fails to build falls back to CSR rather than failing the whole
// matrix.
func RegionSelector() hybrid.Selector {
	m := roofline.Default()
	return func(sub *core.COO) (core.Format, error) {
		ft := extractLite(sub)
		bestName := "csr"
		best := -1.0
		for _, name := range regionFormats {
			bytes, exact, feasible, _ := PredictBytes(ft, formats.Spec{Format: name})
			if !feasible || !exact {
				continue
			}
			if secs := PredictSeconds(ft, name, bytes, m, 1); best < 0 || secs < best {
				best = secs
				bestName = name
			}
		}
		f, err := formats.Build(bestName, sub)
		if err != nil && bestName != "csr" {
			return csr.FromCOO(sub)
		}
		return f, err
	}
}
