package autotune

import (
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"sort"
	"time"

	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/prof/archive"
	"spmv/internal/roofline"
)

// Options configure Tune. The zero value runs the deterministic
// analytic ranking only.
type Options struct {
	// Threads is the executor thread count the tuning targets (probe
	// runs and archive-prior matching use it); 0 means GOMAXPROCS.
	Threads int
	// Budget bounds the measured-probe refinement stage; 0 skips
	// probing and the ranking stays purely analytic (and bit-stable).
	Budget time.Duration
	// TopK is how many leading candidates the probe stage measures
	// (plain CSR is always probed as the baseline); 0 means 3.
	TopK int
	// ArchivePath, when set, names the BENCH_<host>.json file used two
	// ways: significant measured priors from it re-weight the analytic
	// ranking, and probe results are recorded back into it.
	ArchivePath string
	// MatrixName keys probe records in the archive; empty derives a
	// name from the matrix dimensions.
	MatrixName string
	// Roofline is the host model the candidates are scored by: its
	// bandwidth ceiling at Threads prices each candidate's bytes and
	// its fitted per-format in-core costs price the decode work
	// (Candidate.PredSecs takes the larger). A model without costs
	// (a schema 1 archive, an analytic model) takes its costs from the
	// checked-in default table (roofline.Default), and a nil Roofline
	// uses that table whole, so analytic tuning stays deterministic
	// without a probe.
	Roofline *roofline.Model
}

// model returns the model candidates are scored by: Roofline, or the
// default table without one.
func (o Options) model() *roofline.Model {
	if o.Roofline != nil {
		return o.Roofline
	}
	return roofline.Default()
}

// score fills a feasible candidate's PredSecs and sets Score to it.
func score(c *Candidate, ft Features, m *roofline.Model, threads int) {
	if !c.Feasible {
		return
	}
	c.PredSecs = PredictSeconds(ft, c.Spec.Name(), c.PredBytes, m, threads)
	c.Score = c.PredSecs
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.TopK <= 0 {
		o.TopK = 3
	}
	return o
}

// Report is the serializable decision trace of one tuning run: the
// extracted features, every candidate with its prediction and score
// (ranked, best first), the chosen combo, and — when the probe stage
// ran — the measured timings and the Welch comparison of the winner
// against plain CSR.
type Report struct {
	Features Features `json:"features"`
	// Candidates are ranked best-first: feasible before infeasible,
	// then ascending score (probe timings override the analytic order
	// for probed candidates).
	Candidates []Candidate `json:"candidates"`
	// Chosen is the winning spec; ChosenPredBytes and ChosenPredSecs
	// its analytic bytes and seconds per SpMV.
	Chosen          formats.Spec `json:"chosen"`
	ChosenPredBytes int64        `json:"chosen_pred_bytes"`
	ChosenPredSecs  float64      `json:"chosen_pred_secs"`
	// PriorsUsed reports whether any significant archive prior
	// re-weighted the ranking.
	PriorsUsed bool `json:"priors_used,omitempty"`
	// Probed reports whether the measurement stage ran; ProbeIters is
	// the per-sample iteration count it used.
	Probed     bool `json:"probed,omitempty"`
	ProbeIters int  `json:"probe_iters,omitempty"`
	// VsCSR is the statistical comparison of the chosen combo's probe
	// timing against the plain-CSR probe (probe runs only).
	VsCSR *archive.Result `json:"vs_csr,omitempty"`
	// ArchiveNote records a non-fatal problem loading or writing the
	// benchmark archive ("" when clean).
	ArchiveNote string `json:"archive_note,omitempty"`
	// CeilingGBps and RooflineSource record the bandwidth ceiling the
	// traffic terms were priced at and the model it came from
	// ("probe", "analytic" or "default"); CostSource says whether the
	// in-core costs were a probe's fit or the default table.
	CeilingGBps    float64 `json:"ceiling_gbps"`
	RooflineSource string  `json:"roofline_source"`
	CostSource     string  `json:"cost_source"`
}

// Tune extracts features, ranks candidates, and (within Options.Budget)
// probes the leaders. The returned report always has at least one
// feasible candidate — plain CSR ranks even when nothing else does.
func Tune(c *core.COO, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	ft := Extract(c)
	rep := &Report{Features: ft, Candidates: Candidates(ft)}
	m := opts.model()
	rep.CeilingGBps = m.CeilingGBps(opts.Threads)
	rep.RooflineSource = m.Source
	rep.CostSource = roofline.SourceDefault
	if m.Costs != nil {
		rep.CostSource = m.Source
	}
	for i := range rep.Candidates {
		score(&rep.Candidates[i], ft, m, opts.Threads)
	}

	if opts.ArchivePath != "" {
		if f, err := archive.Load(opts.ArchivePath); err == nil {
			priors := loadPriors(f.Records, opts.Threads)
			applyPriors(rep.Candidates, priors)
			for _, cand := range rep.Candidates {
				if cand.PriorSignificant {
					rep.PriorsUsed = true
					break
				}
			}
		} else if !errors.Is(err, fs.ErrNotExist) {
			rep.ArchiveNote = err.Error()
		}
	}

	rank(rep.Candidates)

	if opts.Budget > 0 {
		if err := probe(c, rep, opts); err != nil {
			return nil, fmt.Errorf("autotune: probe: %w", err)
		}
	}

	for _, cand := range rep.Candidates {
		if cand.Feasible {
			rep.Chosen = cand.Spec
			rep.ChosenPredBytes = cand.PredBytes
			rep.ChosenPredSecs = cand.PredSecs
			return rep, nil
		}
	}
	return nil, fmt.Errorf("autotune: no feasible candidate for %dx%d nnz=%d",
		ft.Rows, ft.Cols, ft.NNZ)
}

// rank orders candidates best-first: feasible before infeasible,
// probed (by measured time) before unprobed within the feasible set
// when probes ran, ascending score otherwise. The sort is stable over
// the fixed candidate order, so the analytic ranking is bit-stable
// across runs.
func rank(cands []Candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.Feasible != b.Feasible {
			return a.Feasible
		}
		if a.Probed != b.Probed {
			return a.Probed
		}
		if a.Probed && b.Probed {
			return a.ProbeSecs < b.ProbeSecs
		}
		return a.Score < b.Score
	})
}

// Build constructs the spec's format, routing "hybrid" through the
// autotuned per-region selector rather than the fixed heuristic the
// registry uses.
func Build(c *core.COO, s formats.Spec) (core.Format, error) {
	if s.Name() == "hybrid" {
		return BuildHybrid(c)
	}
	return formats.BuildSpec(c, s)
}
