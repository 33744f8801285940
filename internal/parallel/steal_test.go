package parallel

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrvi"
	"spmv/internal/matgen"
	"spmv/internal/obs"
	"spmv/internal/sym"
	"spmv/internal/testmat"
)

func TestStealExecutorMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	coos := map[string]*core.COO{
		"stencil":  matgen.Stencil2D(12),
		"fem":      matgen.FEMLike(rng, 300, 6, matgen.Values{Unique: 30}),
		"powerlaw": matgen.PowerLaw(rng, 400, 4, 0.9, matgen.Values{}),
		"skewed":   matgen.SkewedRows(rng, 200, 3, 100, 0.4, matgen.Values{}),
	}
	for name, c := range coos {
		f, err := csr.FromCOO(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := testmat.RandVec(rng, c.Cols())
		want := reference(c, x)
		for _, threads := range []int{1, 2, 4, 8} {
			e, err := NewStealExecutor(f, threads)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, threads, err)
			}
			y := make([]float64, c.Rows())
			for iter := 0; iter < 3; iter++ {
				if err := e.Run(y, x); err != nil {
					t.Fatalf("%s/%d: %v", name, threads, err)
				}
				testmat.AssertClose(t, name, y, want, 1e-10)
			}
			e.Close()
		}
	}
}

// TestStealDrainStealsAll drives the claim protocol deterministically:
// with the other workers idle, one worker's drain must first exhaust
// its own queue (no steals counted), then claim every chunk of every
// other queue via the CAS path, counting each as a steal — and the
// assembled y must be the complete product.
func TestStealDrainStealsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	c := matgen.SkewedRows(rng, 300, 3, 150, 0.4, matgen.Values{})
	f, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewStealExecutor(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Split may drop empty ranges, so over-decomposition lands near,
	// not exactly at, stealFactor chunks per worker.
	if len(e.queues) != 4 || len(e.chunks) <= 2*4 || len(e.chunks) > stealFactor*4 {
		t.Fatalf("%d queues over %d chunks, want 4 over ~%d",
			len(e.queues), len(e.chunks), stealFactor*4)
	}

	x := testmat.RandVec(rng, c.Cols())
	y := make([]float64, c.Rows())
	stats := make([]obs.ChunkStat, len(e.queues))
	e.drain(0, job{y: y, x: x, stats: stats})

	wantSteals := len(e.chunks) - len(e.queues[0])
	if stats[0].Steals != wantSteals {
		t.Errorf("worker 0 stole %d chunks, want %d", stats[0].Steals, wantSteals)
	}
	if stats[0].NNZ != f.NNZ() {
		t.Errorf("worker 0 executed %d nnz, want all %d", stats[0].NNZ, f.NNZ())
	}
	testmat.AssertClose(t, "steal-drain", y, reference(c, x), 1e-10)
}

func TestStealExecutorCollector(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := matgen.SkewedRows(rng, 400, 3, 200, 0.4, matgen.Values{})
	f, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewStealExecutor(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rec := obs.NewRecorder()
	e.SetCollector(rec)
	x := testmat.RandVec(rng, c.Cols())
	y := make([]float64, c.Rows())
	if err := e.Run(y, x); err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot()
	if s.Runs != 1 || s.Last.Partition != "steal" {
		t.Fatalf("snapshot = %+v, want 1 run with partition steal", s.Last)
	}
	// Every chunk ran on some worker, so the per-worker executed-nnz
	// counts sum to the matrix total regardless of who stole what.
	var nnz, steals int
	for _, cs := range s.Last.Chunks {
		nnz += cs.NNZ
		steals += cs.Steals
	}
	if nnz != f.NNZ() {
		t.Errorf("executed nnz sums to %d, want %d", nnz, f.NNZ())
	}
	if steals != s.Last.Steals {
		t.Errorf("RunStat.Steals = %d, chunk sum %d", s.Last.Steals, steals)
	}
}

func TestStealExecutorBatchAndClose(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := matgen.FEMLike(rng, 200, 5, matgen.Values{Unique: 20})
	f, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewStealExecutor(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	x := testmat.RandVec(rng, c.Cols()*k)
	y := make([]float64, c.Rows()*k)
	if err := e.RunBatch(y, x, k); err != nil {
		t.Fatal(err)
	}
	for col := 0; col < k; col++ {
		xc := make([]float64, c.Cols())
		yc := make([]float64, c.Rows())
		for j := range xc {
			xc[j] = x[j*k+col]
		}
		for i := range yc {
			yc[i] = y[i*k+col]
		}
		testmat.AssertClose(t, "steal-batch", yc, reference(c, xc), 1e-10)
	}
	e.Close()
	if err := e.Run(make([]float64, c.Rows()), x[:c.Cols()]); !errors.Is(err, core.ErrUsage) {
		t.Errorf("Run after Close = %v, want core.ErrUsage", err)
	}
}

func TestNewWithStealAndNNZOptions(t *testing.T) {
	f, err := csr.FromCOO(matgen.Stencil2D(10))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(f, ExecOptions{Threads: 2, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*StealExecutor); !ok {
		t.Errorf("Steal option built %T", r)
	}
	r.Close()

	r, err = New(f, ExecOptions{Threads: 2, Partition: "nnz"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*NNZExecutor); !ok {
		t.Errorf("nnz partition built %T", r)
	}
	r.Close()

	// A format that cannot split rows keeps its row split under nnz.
	vi, err := csrvi.FromCOO(matgen.Stencil2D(10))
	if err != nil {
		t.Fatal(err)
	}
	r, err = New(vi, ExecOptions{Threads: 2, Partition: "nnz"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*Executor); !ok {
		t.Errorf("nnz partition of csr-vi built %T", r)
	}
	r.Close()

	// Symmetric storage has no row split: the default scheme is the
	// scatter executor's tree reduction.
	sm, err := sym.FromCOO(matgen.Stencil2D(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err = New(sm, ExecOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*SymExecutor); !ok {
		t.Errorf("default scheme for sym-csr built %T", r)
	}
	r.Close()

	if _, err := New(f, ExecOptions{Threads: 2, Partition: "col", Steal: true}); !errors.Is(err, core.ErrUsage) {
		t.Errorf("Steal+col = %v, want core.ErrUsage", err)
	}
	if _, err := New(f, ExecOptions{Threads: 2, Partition: "bogus"}); !errors.Is(err, core.ErrUsage) {
		t.Errorf("unknown partition = %v, want core.ErrUsage", err)
	}
}

// failEveryFormat is a minimal row-partitionable format whose kernel
// panics on its Nth SpMV call — the FailEvery hook for exercising the
// executors' failure paths without corrupting a real matrix. Its
// chunks deliberately do not implement core.BatchChunk, forcing the
// per-column RunBatch fallback.
type failEveryFormat struct {
	n     int
	fail  int // panic on this (1-based) kernel call; 0 ⇒ never
	calls int
}

func (f *failEveryFormat) Name() string     { return "fail-every" }
func (f *failEveryFormat) Rows() int        { return f.n }
func (f *failEveryFormat) Cols() int        { return f.n }
func (f *failEveryFormat) NNZ() int         { return f.n }
func (f *failEveryFormat) SizeBytes() int64 { return int64(f.n) }
func (f *failEveryFormat) SpMV(y, x []float64) {
	copy(y[:f.n], x[:f.n])
}

func (f *failEveryFormat) Split(int) []core.Chunk {
	return []core.Chunk{&failEveryChunk{f: f}}
}

type failEveryChunk struct{ f *failEveryFormat }

func (c *failEveryChunk) RowRange() (int, int) { return 0, c.f.n }
func (c *failEveryChunk) NNZ() int             { return c.f.n }
func (c *failEveryChunk) SpMV(y, x []float64) {
	c.f.calls++
	if c.f.calls == c.f.fail {
		panic("fail-every: injected kernel failure")
	}
	copy(y[:c.f.n], x[:c.f.n])
}

// TestRunBatchFallbackReportsFailedRun pins the satellite bugfix: the
// per-column RunBatch fallback used to return straight out of the
// column loop on a failed column, skipping the collector's RunDone —
// a failing batch left no RunStat at all. The fixed path emits exactly
// one RunStat with Err set and Vectors = k.
func TestRunBatchFallbackReportsFailedRun(t *testing.T) {
	f := &failEveryFormat{n: 8, fail: 2} // column 0 succeeds, column 1 panics
	e, err := NewExecutor(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rec := obs.NewRecorder()
	e.SetCollector(rec)

	const k = 3
	y := make([]float64, f.n*k)
	x := make([]float64, f.n*k)
	batchErr := e.RunBatch(y, x, k)
	if batchErr == nil {
		t.Fatal("RunBatch with injected failure succeeded")
	}
	if !strings.Contains(batchErr.Error(), "batch column 1") {
		t.Errorf("error %q does not name the failed column", batchErr)
	}
	if got := rec.Runs(); got != 1 {
		t.Fatalf("recorder saw %d runs after failed batch, want 1", got)
	}
	s := rec.Snapshot()
	if s.Last.Err == "" || !strings.Contains(s.Last.Err, "batch column 1") {
		t.Errorf("RunStat.Err = %q, want the batch failure", s.Last.Err)
	}
	if s.Last.Vectors != k {
		t.Errorf("RunStat.Vectors = %d, want %d", s.Last.Vectors, k)
	}
}
