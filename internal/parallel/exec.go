package parallel

import (
	"context"
	"fmt"
	"runtime"

	"spmv/internal/core"
	"spmv/internal/obs"
)

// Runner is the interface all executors in this package satisfy: the
// scalar and batched run entry points plus lifecycle and telemetry.
// Code that only drives multiplications (benchmarks, solvers, the CLI)
// should accept a Runner so the partition scheme stays a construction-
// time choice.
type Runner interface {
	// Run computes y = A*x.
	Run(y, x []float64) error
	// RunCtx is Run with a cancellation context: a context that is done
	// before dispatch returns ctx.Err() without running. Contexts bound
	// queueing delay, not kernel time — an in-flight chunk kernel is
	// never preempted.
	RunCtx(ctx context.Context, y, x []float64) error
	// RunIters performs iters consecutive scalar multiplications.
	RunIters(iters int, y, x []float64) error
	// RunBatch computes Y = A*X over row-major n×k panels.
	RunBatch(y, x []float64, k int) error
	// RunBatchCtx is RunBatch with a cancellation context, checked
	// before dispatch and between fallback panel columns.
	RunBatchCtx(ctx context.Context, y, x []float64, k int) error
	// RunBatchIters performs iters consecutive batched multiplications.
	RunBatchIters(iters int, y, x []float64, k int) error
	// Threads returns the worker count.
	Threads() int
	// SetCollector attaches (or detaches, with nil) a telemetry sink.
	SetCollector(obs.Collector)
	// Close stops the workers; Run afterwards wraps core.ErrUsage.
	// Close is idempotent and safe concurrently with Run/RunBatch.
	Close()
}

var (
	_ Runner = (*Executor)(nil)
	_ Runner = (*ColExecutor)(nil)
	_ Runner = (*BlockExecutor)(nil)
	_ Runner = (*NNZExecutor)(nil)
	_ Runner = (*StealExecutor)(nil)
	_ Runner = (*SymExecutor)(nil)
)

// ExecOptions configures New.
type ExecOptions struct {
	// Threads is the worker count; 0 or negative means GOMAXPROCS.
	Threads int
	// Collector, when non-nil, is attached with SetCollector.
	Collector obs.Collector
	// Partition selects the execution scheme: "row" (the default, also
	// selected by ""), "col", or "nnz" (non-zero-granular boundaries
	// that split long rows; formats that cannot split a row — all but
	// CSR — keep their row split, which places row boundaries by
	// non-zero count). With "", a format that offers scatter chunks but
	// no row chunks (sym-csr, csc) runs under the SymExecutor's
	// private-vector tree reduction. Block partitioning needs the
	// original triplets, not a built format — use NewBlockExecutor
	// directly.
	Partition string
	// Steal over-decomposes the row partition and lets idle workers
	// steal queued chunks (see StealExecutor). Only meaningful with the
	// row scheme; combining it with another Partition is a usage error.
	Steal bool
}

// New builds an executor for f according to opts. It is the options
// counterpart of NewExecutor/NewColExecutor and the construction path
// the public spmv package exposes.
func New(f core.Format, opts ExecOptions) (Runner, error) {
	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	var (
		r   Runner
		err error
	)
	if opts.Steal && opts.Partition != "" && opts.Partition != "row" {
		return nil, core.Usagef("parallel: Steal applies to the row partition, not %q", opts.Partition)
	}
	switch {
	case opts.Steal:
		r, err = NewStealExecutor(f, threads)
	case opts.Partition == "" && isScatterOnly(f):
		// Symmetric storage (sym-csr) applies each stored element to
		// two rows, so it cannot be row-partitioned; its scatter chunks
		// run under the private-vector tree reduction instead.
		r, err = NewSymExecutor(f, threads)
	case opts.Partition == "" || opts.Partition == "row":
		r, err = NewExecutor(f, threads)
	case opts.Partition == "col":
		r, err = NewColExecutor(f, threads)
	case opts.Partition == "nnz":
		if _, ok := f.(core.NNZSplitter); ok {
			r, err = NewNNZExecutor(f, threads)
		} else {
			// No mid-row splitting for this format: its row split, which
			// the row formats already place by non-zero count, is the
			// nearest balance it offers.
			r, err = NewExecutor(f, threads)
		}
	default:
		return nil, core.Usagef("parallel: unknown partition %q (valid: row, col, nnz)", opts.Partition)
	}
	if err != nil {
		return nil, err
	}
	if opts.Collector != nil {
		r.SetCollector(opts.Collector)
	}
	return r, nil
}

// isScatterOnly reports whether f offers scatter (column) chunks but
// no row chunks — the shape of symmetric storage.
func isScatterOnly(f core.Format) bool {
	_, rows := f.(core.Splitter)
	_, scatter := f.(core.ColSplitter)
	return scatter && !rows
}

// runBatchColumns is the executor-level batch fallback shared by the
// reducing executors: gather each panel column into contiguous scratch
// vectors, run the scalar executor, scatter the result column back.
// The scalar path's own telemetry fires once per column, each an
// honest single-vector run. A non-nil ctx is checked before each
// column, so a canceled batch stops between columns.
func runBatchColumns(ctx context.Context, y, x []float64, k int, yc, xc []float64, run func(y, x []float64) error) error {
	for c := 0; c < k; c++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("batch column %d: %w", c, err)
			}
		}
		for j := range xc {
			xc[j] = x[j*k+c]
		}
		if err := run(yc, xc); err != nil {
			return fmt.Errorf("batch column %d: %w", c, err)
		}
		for i, v := range yc {
			y[i*k+c] = v
		}
	}
	return nil
}
