package autotune

import (
	"sort"

	"spmv/internal/prof/archive"
)

// prior is a per-format measured-bandwidth summary derived from the
// host's benchmark archive.
type prior struct {
	// GBps and CSRGBps are mean effective bandwidths across matrices
	// where both this format and csr were measured at the same thread
	// count.
	GBps    float64
	CSRGBps float64
	// Significant is true when at least one matched (matrix, threads)
	// cell shows a Welch-significant timing difference between the
	// format and csr — the bar a prior must clear before it is allowed
	// to reorder the analytic ranking.
	Significant bool
}

// loadPriors summarizes archive records into per-format priors at the
// given thread count. Records are matched per (matrix, threads) cell
// against the same cell's csr measurement; the Welch comparator (via
// archive.Compare on the synthesized pair) decides significance.
func loadPriors(recs []archive.Record, threads int) map[string]prior {
	type cell struct{ matrix string }
	csrBy := make(map[cell]archive.Record)
	for _, r := range recs {
		if r.Format == "csr" && r.Threads == threads {
			csrBy[cell{r.Matrix}] = r
		}
	}
	sums := make(map[string]*prior)
	names := make([]string, 0)
	for _, r := range recs {
		if r.Threads != threads || r.Format == "csr" || r.GBps <= 0 {
			continue
		}
		base, ok := csrBy[cell{r.Matrix}]
		if !ok || base.GBps <= 0 {
			continue
		}
		p := sums[r.Format]
		if p == nil {
			p = &prior{}
			sums[r.Format] = p
			names = append(names, r.Format)
		}
		// Average ratios by accumulating both sides; one significant
		// matched cell qualifies the whole prior.
		p.GBps += r.GBps
		p.CSRGBps += base.GBps
		if welchSignificant(base, r) {
			p.Significant = true
		}
	}
	sort.Strings(names)
	out := make(map[string]prior, len(sums))
	for _, n := range names {
		out[n] = *sums[n]
	}
	return out
}

// welchSignificant reports whether the two cells' timings are
// statistically distinguishable, reusing the archive comparator by
// aligning the records onto one synthetic cell name.
func welchSignificant(a, b archive.Record) bool {
	a.Name, b.Name = "cell", "cell"
	b.Scale = a.Scale // Compare refuses scale mismatches; timings at the
	// recorded scales are still the host's own numbers.
	res, err := archive.Compare([]archive.Record{a}, []archive.Record{b}, archive.Options{})
	if err != nil || len(res) != 1 {
		return false
	}
	return res[0].Significant
}

// applyPriors blends archive priors into candidate scores: a format
// with a significant measured bandwidth ratio r against csr has its
// predicted seconds divided by r, so a format that historically moves
// bytes faster (or slower) than csr on this host is credited (or
// penalized) proportionally. Candidates without a significant prior
// keep their analytic score untouched.
func applyPriors(cands []Candidate, priors map[string]prior) {
	for i := range cands {
		c := &cands[i]
		p, ok := priors[c.Spec.Name()]
		if !ok || !p.Significant || p.GBps <= 0 || p.CSRGBps <= 0 {
			continue
		}
		ratio := p.GBps / p.CSRGBps
		c.PriorGBps = p.GBps
		c.PriorSignificant = true
		c.Score /= ratio
	}
}
