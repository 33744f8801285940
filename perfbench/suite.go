package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// The spmv-suite matrices: three L-class shapes of the repository's
// suite at scale 1, generated from the run's seed.
var suiteShapes = []shape{
	{name: "stencil3d-l", kind: "stencil3d", rows: 75 * 75 * 75},
	{name: "femlike-l", kind: "femlike", rows: 220000},
	{name: "random-l-q200", kind: "random-q200", rows: 300000},
}

// workloadFormats are the builds every workload compares: the paper's
// CSR baseline, its two compressed formats, and the tuner's pick.
var workloadFormats = []string{"csr", "csr-du", "csr-vi", "auto"}

type suiteState struct {
	threads int
	mats    []*matrix
	cells   []*cell
	cg      *cgRun // the last solve of a traced measurement
}

func newSuite(seed int64, _ float64, threads int, tr *Tracer) (state, error) {
	root := tr.Begin("setup", 0, 0)
	defer tr.End(root)
	// One goroutine per matrix, at most threads at once. Each matrix draws
	// from its own seeded generator, so the inputs do not depend on the
	// order the goroutines run in.
	mats := make([]*matrix, len(suiteShapes))
	cells := make([][]*cell, len(suiteShapes))
	errs := make([]error, len(suiteShapes))
	sem := make(chan struct{}, threads)
	var wg sync.WaitGroup
	for i, s := range suiteShapes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sp := tr.Begin("matgen/"+s.name, root, 0)
			m, err := makeMatrix(rand.New(rand.NewSource(seed*int64(len(suiteShapes))+int64(i))), s, 1)
			tr.End(sp)
			if err != nil {
				errs[i] = err
				return
			}
			mats[i] = m
			for _, f := range workloadFormats {
				c, err := buildCell(m, f, threads, tr, root)
				if err != nil {
					errs[i] = err
					return
				}
				cells[i] = append(cells[i], c)
			}
		}()
	}
	wg.Wait()
	st := &suiteState{threads: threads, mats: mats}
	for _, cs := range cells {
		st.cells = append(st.cells, cs...)
	}
	for _, err := range errs {
		if err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

func (st *suiteState) matrices() []*matrix { return st.mats }

func (st *suiteState) close() {
	for _, c := range st.cells {
		c.close()
	}
}

// measure multiplies every build in turn, closed loop with one caller,
// for secs; then solves CG twice on stencil3d-l with its auto build.
func (st *suiteState) measure(secs float64, tr *Tracer) (*measurement, error) {
	res := newMeasurement()
	for _, c := range st.cells {
		c.times = c.times[:0]
	}
	d := time.Duration(secs * float64(time.Second))
	start := time.Now()
	for time.Since(start) < d {
		for _, c := range st.cells {
			res.attempted++
			if err := c.run(tr, 0); err != nil {
				res.fail(err)
			}
		}
	}

	var cellMed, cellTail []float64
	gflops := map[string][]float64{}
	minN, tailP := math.MaxInt, 99
	for _, c := range st.cells {
		med := median(c.times)
		q := tail(c.times, 99)
		cellMed = append(cellMed, med)
		cellTail = append(cellTail, q.Value)
		minN, tailP = min(minN, q.N), min(tailP, q.P)
		gflops[c.format] = append(gflops[c.format], 2*float64(c.f.NNZ())/med/1e9)
	}
	res.e2e["mul_ms_p50"] = metric{geomean(cellMed) * 1e3, "ms", minN, "Runner.Run, geomean of per-build medians"}
	res.extra["mul_ms_p99"] = metric{geomean(cellTail) * 1e3, "ms", minN, fmt.Sprintf("p%d of Runner.Run, geomean over builds", tailP)}
	for _, f := range workloadFormats {
		res.e2e["spmv_gflops."+f] = metric{geomean(gflops[f]), "GFLOP/s", minN, "2*nnz / median Run, geomean over matrices"}
	}

	// CG on the SPD matrix with its auto build, twice: the iteration count
	// and final residual must repeat bit for bit.
	auto := st.cell(st.mats[0], "auto")
	var runs []cgRun
	for k := 0; k < 2; k++ {
		res.attempted++
		r, err := solveCG(auto, tr)
		if err != nil {
			res.fail(err)
			continue
		}
		runs = append(runs, r)
	}
	if len(runs) == 2 {
		a, b := runs[0].res, runs[1].res
		if a.Iterations != b.Iterations || math.Float64bits(a.Residual) != math.Float64bits(b.Residual) {
			res.fail(fmt.Errorf("cg did not repeat: %d iterations / residual %g, then %d / %g",
				a.Iterations, a.Residual, b.Iterations, b.Residual))
		}
		res.extra["cg_solve_s"] = metric{median([]float64{runs[0].secs, runs[1].secs}), "s", 2, "CG to 1e-8 on stencil3d-l, auto build"}
		res.extra["cg_iters"] = metric{float64(a.Iterations), "count", 2, ""}
		st.cg = &runs[1]
	}
	return res, nil
}

func (st *suiteState) cell(m *matrix, format string) *cell {
	for _, c := range st.cells {
		if c.m == m && c.format == format {
			return c
		}
	}
	return nil
}

func (st *suiteState) layers(tr *Tracer, roof *roofInfo) (metricSet, error) {
	return sweep(&sweepIn{mats: st.mats, cells: st.cells, cg: st.cg}, st.threads, tr, roof)
}
