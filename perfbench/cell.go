package main

import (
	"fmt"
	"time"

	"spmv/internal/autotune"
	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/obs"
	"spmv/internal/parallel"
	"spmv/internal/solver"
)

// cell is one matrix built in one format, with its executor and the Run
// times measured on it.
type cell struct {
	m      *matrix
	format string // registry name, or "auto"
	f      core.Format
	tune   *autotune.Report // auto only
	// buildSecs covers the encoder and, for auto, the tuner.
	buildSecs float64
	tuneSecs  float64
	runner    parallel.Runner
	rec       *obs.Recorder // traced runs only
	times     []float64     // seconds per Runner.Run
	y         []float64
}

// buildCell builds m in format ("auto" tunes analytically and builds the
// pick, as the server's ingest does) and starts an executor at threads
// workers. With a tracer, an obs.Recorder is attached as the Collector.
func buildCell(m *matrix, format string, threads int, tr *Tracer, parent int) (*cell, error) {
	c := &cell{m: m, format: format, y: make([]float64, m.coo.Rows())}
	start := time.Now()
	opts := parallel.ExecOptions{Threads: threads}
	if format == "auto" {
		sp := tr.Begin("autotune.Tune", parent, 0)
		rep, err := autotune.Tune(m.coo, autotune.Options{Threads: threads})
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("tune %s: %w", m.name, err)
		}
		c.tuneSecs = time.Since(start).Seconds()
		c.tune = rep
		sp = tr.Begin("autotune.Build", parent, 0)
		c.f, err = autotune.Build(m.coo, rep.Chosen)
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("build auto %s: %w", m.name, err)
		}
		opts.Partition, opts.Steal = rep.Chosen.Partition, rep.Chosen.Steal
	} else {
		sp := tr.Begin("formats.Build/"+format, parent, 0)
		f, err := formats.Build(format, m.coo)
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("build %s %s: %w", format, m.name, err)
		}
		c.f = f
	}
	c.buildSecs = time.Since(start).Seconds()
	if tr != nil {
		c.rec = obs.NewRecorder()
		opts.Collector = c.rec
	}
	r, err := parallel.New(c.f, opts)
	if err != nil && format == "auto" {
		// The tuned scheduler hint may not apply to the built format; the
		// server falls back to the row executor, and so does this.
		opts.Partition, opts.Steal = "", false
		r, err = parallel.New(c.f, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("executor %s %s: %w", format, m.name, err)
	}
	c.runner = r
	return c, nil
}

// run performs one timed Runner.Run with x = m.xs[0] and checks the
// product against the serial CSR reference.
func (c *cell) run(tr *Tracer, parent int) error {
	sp := tr.Begin("Runner.Run/"+c.format, parent, 0)
	t := time.Now()
	err := c.runner.Run(c.y, c.m.xs[0])
	d := time.Since(t).Seconds()
	tr.End(sp)
	if err != nil {
		return fmt.Errorf("run %s %s: %w", c.format, c.m.name, err)
	}
	c.times = append(c.times, d)
	if err := checkProduct(c.y, c.m.refs[0]); err != nil {
		return fmt.Errorf("%s on %s: %w", c.format, c.m.name, err)
	}
	return nil
}

func (c *cell) close() { c.runner.Close() }

// cgTol and cgMaxIter fix the solve every CG measurement makes.
const (
	cgTol     = 1e-8
	cgMaxIter = 2000
)

// cgRun is one CG solve: its result and wall time.
type cgRun struct {
	res  solver.Result
	secs float64
}

// solveCG solves A·u = b with b = A·x0 from zero through c's executor. The
// operator's Mul is wrapped in a span so the trace gives the solver's
// share of time spent in SpMV.
func solveCG(c *cell, tr *Tracer) (cgRun, error) {
	n := c.m.coo.Rows()
	op := solver.FromRunner(c.runner, n)
	inner := op.Mul
	solveSpan := 0
	op.Mul = func(y, x []float64) error {
		sp := tr.Begin("Operator.Mul", solveSpan, 0)
		err := inner(y, x)
		tr.End(sp)
		return err
	}
	b := c.m.refs[0]
	u := make([]float64, n)
	solveSpan = tr.Begin("solver.CG", 0, 0)
	t := time.Now()
	res, err := solver.CG(op, b, u, cgTol, cgMaxIter)
	secs := time.Since(t).Seconds()
	tr.End(solveSpan)
	if err != nil {
		return cgRun{}, fmt.Errorf("cg on %s: %w", c.m.name, err)
	}
	if !res.Converged {
		return cgRun{}, fmt.Errorf("cg on %s: no convergence in %d iterations (residual %g)", c.m.name, res.Iterations, res.Residual)
	}
	// Check the answer itself, not only the solver's own residual.
	r := make([]float64, n)
	c.m.csr.SpMV(r, u)
	var rr, bb float64
	for i := range r {
		d := b[i] - r[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	if rr > 1e-12*bb { // true relative residual above 1e-6
		return cgRun{}, fmt.Errorf("cg on %s: true residual %g too large", c.m.name, rr/bb)
	}
	return cgRun{res: res, secs: secs}, nil
}
