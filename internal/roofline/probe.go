// Package roofline anchors every bandwidth number this repo reports to
// a measured ceiling, and carries the in-core side of the time model.
// The paper's thesis — SpMV is memory-bandwidth bound, and compression
// wins by shrinking the stream — is only checkable against a
// denominator: the bandwidth the host can actually sustain. This package supplies that denominator two ways:
//
//   - a measured probe: STREAM-style copy/scale/triad kernels run at
//     1..P threads, repeated-sample timed (mean/stddev, the same
//     summary shape the benchmark archive's Welch comparator consumes),
//     persisted per host as benchdata/ROOF_<host>.json;
//   - an analytic fallback: memsim.Machine's bus-occupancy peak
//     (PeakGBps), for hosts with no probe archive.
//
// A Model built from either source turns any (bytes/iter, secs/iter,
// threads) measurement into percent-of-roofline — the number that says
// whether a kernel is at the memory wall or leaving bandwidth on the
// table. A Model also carries per-format in-core costs (Cost), so a
// prediction can take the larger of the traffic time and the decode
// work, as in the Schubert/Hager/Fehske decomposition.
package roofline

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"spmv/internal/stats"
)

// Schema is the ROOF_<host>.json schema version written. Schema 2
// adds the fitted per-format in-core costs (File.Costs); schema 1
// files, which carry bandwidth cells only, still load.
const Schema = 2

// minSchema is the oldest schema ReadFile and FromFile accept.
const minSchema = 1

// Kernel names, in probe order. Bytes moved per element per sweep:
// copy and scale stream two arrays (read one, write one), triad
// streams three (read two, write one) — the classic STREAM accounting.
const (
	KernelCopy  = "copy"
	KernelScale = "scale"
	KernelTriad = "triad"
)

// Kernels lists the probe kernels in their fixed run order.
func Kernels() []string { return []string{KernelCopy, KernelScale, KernelTriad} }

func kernelBytesPerElem(kernel string) int64 {
	if kernel == KernelTriad {
		return 24
	}
	return 16
}

// Result is one (kernel, threads) probe cell: GB/s summarized over
// repeated samples, the shape the archive comparator tests drift on.
type Result struct {
	Kernel  string `json:"kernel"`
	Threads int    `json:"threads"`
	// ArrayLen is the per-array element count; each sweep moves
	// ArrayLen * bytes-per-element bytes.
	ArrayLen int `json:"array_len"`
	// SweepsPerSample is the timed sweeps behind each sample.
	SweepsPerSample int `json:"sweeps_per_sample"`
	Samples         int `json:"samples"`
	// MeanGBps and StddevGBps summarize the per-sample effective
	// bandwidth (sample stddev, n-1 denominator; 0 when Samples < 2).
	MeanGBps   float64 `json:"mean_gbps"`
	StddevGBps float64 `json:"stddev_gbps"`
}

// File is the persisted per-host probe archive.
type File struct {
	Schema int    `json:"schema"`
	Host   string `json:"host"`
	GoOS   string `json:"goos,omitempty"`
	GoArch string `json:"goarch,omitempty"`
	Date   string `json:"date,omitempty"`
	// Cores is GOMAXPROCS at probe time.
	Cores   int      `json:"cores"`
	Results []Result `json:"results"`
	// Costs are the per-format in-core costs fitted by the kernel
	// microprobe run beside the bandwidth probe (schema 2; absent in
	// schema 1 files).
	Costs map[string]Cost `json:"costs,omitempty"`
}

// ProbeOptions tune Probe. The zero value probes 1..GOMAXPROCS threads
// with three samples per cell and a ~32 MiB working set per array.
type ProbeOptions struct {
	// MaxThreads is the highest thread count probed (1..MaxThreads,
	// doubling: 1, 2, 4, ... MaxThreads); 0 means GOMAXPROCS.
	MaxThreads int
	// Samples per (kernel, threads) cell; 0 means 3. Values >= 2 give
	// the archive comparator a spread to Welch-test drift against.
	Samples int
	// ArrayLen is the element count of each float64 array; 0 means
	// 1<<22 (32 MiB per array — far past any L2, so the sweeps stream
	// from memory).
	ArrayLen int
	// Budget bounds the probe's total measured wall time; 0 means no
	// bound. A tight budget shrinks the arrays (never below 1<<16
	// elements) rather than dropping cells, so every (kernel, threads)
	// cell always reports.
	Budget time.Duration
}

func (o ProbeOptions) withDefaults() ProbeOptions {
	if o.MaxThreads <= 0 {
		o.MaxThreads = runtime.GOMAXPROCS(0)
	}
	if o.Samples <= 0 {
		o.Samples = 3
	}
	if o.ArrayLen <= 0 {
		o.ArrayLen = 1 << 22
	}
	return o
}

// threadCounts returns 1, 2, 4, ... max (max always included).
func threadCounts(max int) []int {
	var out []int
	for t := 1; t < max; t *= 2 {
		out = append(out, t)
	}
	return append(out, max)
}

// Probe measures the host's sustainable memory bandwidth with the
// STREAM kernels and returns the per-cell results. It is pure Go: no
// cgo, no assembly — the kernels are simple enough that the compiler
// emits straight streaming loops, and the number it reports is the
// ceiling Go SpMV kernels can actually reach, which is the honest
// roofline for this runtime.
func Probe(opts ProbeOptions) (*File, error) {
	opts = opts.withDefaults()
	n := opts.ArrayLen
	if opts.Budget > 0 {
		n = budgetArrayLen(opts)
	}
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = float64(i%17) + 0.5
		c[i] = float64(i%13) + 0.25
	}

	f := &File{
		Schema: Schema,
		Host:   Hostname(),
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		Date:   time.Now().UTC().Format(time.RFC3339),
		Cores:  runtime.GOMAXPROCS(0),
	}
	for _, kernel := range Kernels() {
		for _, th := range threadCounts(opts.MaxThreads) {
			r, err := probeCell(kernel, th, a, b, c, opts.Samples)
			if err != nil {
				return nil, err
			}
			f.Results = append(f.Results, r)
		}
	}
	return f, nil
}

// budgetArrayLen shrinks the per-array element count so the whole
// probe (kernels x thread counts x samples, one sweep each plus the
// calibration sweep) fits the wall-clock budget, assuming a
// pessimistic 1 GB/s floor. Never below 1<<16 elements (512 KiB/array)
// so the sweeps still stream past L1/L2.
func budgetArrayLen(opts ProbeOptions) int {
	cells := len(Kernels()) * len(threadCounts(opts.MaxThreads))
	sweeps := cells * (opts.Samples + 1)
	// At >= 1 GB/s, one sweep of n elements costs <= 24n/1e9 seconds.
	n := int(opts.Budget.Seconds() * 1e9 / (24 * float64(sweeps)))
	if n > opts.ArrayLen {
		n = opts.ArrayLen
	}
	if n < 1<<16 {
		n = 1 << 16
	}
	return n
}

// sink defeats dead-code elimination of the probe kernels: every
// sample folds a checksum into it.
var sink float64

// probeCell measures one (kernel, threads) cell: one untimed warm-up
// sweep, then samples timed sweeps, each converted to GB/s.
func probeCell(kernel string, threads int, a, b, c []float64, samples int) (Result, error) {
	sweep, err := kernelFunc(kernel)
	if err != nil {
		return Result{}, err
	}
	n := len(a)
	bytesPerSweep := int64(n) * kernelBytesPerElem(kernel)
	sweep(threads, a, b, c) // warm-up: page faults, scheduler settle
	gbps := make([]float64, 0, samples)
	for s := 0; s < samples; s++ {
		start := time.Now()
		sweep(threads, a, b, c)
		secs := time.Since(start).Seconds()
		if secs <= 0 {
			return Result{}, fmt.Errorf("roofline: %s/t%d: non-positive sweep time", kernel, threads)
		}
		gbps = append(gbps, float64(bytesPerSweep)/secs/1e9)
	}
	sink += b[n/2] + a[n/3]
	mean, stddev := stats.MeanStddev(gbps)
	return Result{
		Kernel:          kernel,
		Threads:         threads,
		ArrayLen:        n,
		SweepsPerSample: 1,
		Samples:         samples,
		MeanGBps:        mean,
		StddevGBps:      stddev,
	}, nil
}

// kernelFunc returns the sweep function for a kernel name: it runs one
// full pass over the arrays with the given number of goroutines on
// disjoint contiguous ranges, returning after all workers finish.
func kernelFunc(kernel string) (func(threads int, a, b, c []float64), error) {
	switch kernel {
	case KernelCopy:
		return func(threads int, a, b, c []float64) {
			parallelRanges(threads, len(a), func(lo, hi int) {
				copyKernel(b[lo:hi], a[lo:hi])
			})
		}, nil
	case KernelScale:
		return func(threads int, a, b, c []float64) {
			parallelRanges(threads, len(a), func(lo, hi int) {
				scaleKernel(b[lo:hi], a[lo:hi], 3.0)
			})
		}, nil
	case KernelTriad:
		return func(threads int, a, b, c []float64) {
			parallelRanges(threads, len(a), func(lo, hi int) {
				triadKernel(a[lo:hi], b[lo:hi], c[lo:hi], 3.0)
			})
		}, nil
	}
	return nil, fmt.Errorf("roofline: unknown kernel %q", kernel)
}

// parallelRanges splits [0, n) into threads contiguous ranges and runs
// body on each from its own goroutine, waiting for all.
func parallelRanges(threads, n int, body func(lo, hi int)) {
	if threads <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		lo := t * n / threads
		hi := (t + 1) * n / threads
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	wg.Wait()
}

// The kernels keep dst/src as separate slice parameters so the range
// loops compile to straight streaming stores/loads.

func copyKernel(dst, src []float64) {
	for i := range dst {
		dst[i] = src[i]
	}
}

func scaleKernel(dst, src []float64, s float64) {
	for i := range dst {
		dst[i] = s * src[i]
	}
}

func triadKernel(dst, b, c []float64, s float64) {
	for i := range dst {
		dst[i] = b[i] + s*c[i]
	}
}
