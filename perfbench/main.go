// Command perfbench is the repository's benchmark. It drives one workload
// against the library and server entry points, checks every output, and
// prints the end-to-end metrics (untraced) or the per-layer metrics (a
// traced run) as one JSON object on its last line of output.
//
//	bash perfbench/run.sh --workload spmv-suite --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported number: value, unit, the number of samples behind
// it, and a note on how it was taken.
type metric struct {
	Value float64
	Unit  string
	N     int
	Note  string
}

type metricSet map[string]metric

// measurement is what one timed phase of a workload produced.
type measurement struct {
	e2e   metricSet // the benchmark's end-to-end metrics
	extra metricSet // workload-specific figures, printed but not gated
	// attempted and failed count operations; a failure is any error,
	// non-2xx answer or wrong result.
	attempted, failed int
	errs              []string
}

func newMeasurement() *measurement {
	return &measurement{e2e: metricSet{}, extra: metricSet{}}
}

// tally counts outs as attempted operations, records the failed ones and
// returns the rest.
func (m *measurement) tally(outs []outcome) []outcome {
	var ok []outcome
	for _, o := range outs {
		m.attempted++
		if o.err != nil {
			m.fail(o.err)
			continue
		}
		ok = append(ok, o)
	}
	return ok
}

func (m *measurement) fail(err error) {
	m.failed++
	if len(m.errs) < 5 {
		m.errs = append(m.errs, err.Error())
	}
}

// state is one set-up instance of a workload.
type state interface {
	measure(secs float64, tr *Tracer) (*measurement, error)
	layers(tr *Tracer, roof *roofInfo) (metricSet, error)
	matrices() []*matrix
	close()
}

type workload struct {
	name string
	// setups is how many times an untraced run sets the workload up;
	// setup_s is their median.
	setups int
	setup  func(seed int64, secs float64, threads int, tr *Tracer) (state, error)
}

var workloads = []workload{
	{"spmv-suite", 2, newSuite},
	{"serve-json", 2, newServe},
	{"ingest-mixed", 2, newIngest},
}

// e2eNames are the end-to-end metrics every untraced run reports.
var e2eNames = []string{
	"setup_s", "peak_heap_mb", "mul_ms_p50",
	"spmv_gflops.csr", "spmv_gflops.csr-du", "spmv_gflops.csr-vi", "spmv_gflops.auto",
}

// heapSampler tracks the peak live Go heap, as marked by the last
// collection, by polling runtime/metrics (which does not stop the world).
// The live heap does not depend on when the collector happens to run.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// take returns the peak since the last take, in MiB, and starts over.
func (h *heapSampler) take() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return float64(p) / (1 << 20)
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// phase sets a workload up k times (keeping the last instance) and measures
// it once for secs.
type phase struct {
	st    state
	setup []float64
	res   *measurement
	// steal is the share of all CPU time the hypervisor took during the
	// measurement, in percent; NaN where the host does not say.
	steal float64
}

func runPhase(w workload, seed int64, secs float64, k, threads int, tr *Tracer, hs *heapSampler) (*phase, error) {
	p := &phase{}
	for i := 0; i < k; i++ {
		if p.st != nil {
			p.st.close()
			p.st = nil
		}
		runtime.GC()
		t := time.Now()
		st, err := w.setup(seed, secs, threads, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setup = append(p.setup, time.Since(t).Seconds())
		p.st = st
	}
	// Mark the live heap once set-up garbage is gone, so the peak below is
	// what the workload holds while it runs.
	runtime.GC()
	hs.take()
	total0, steal0, ok0 := hostCPU()
	res, err := p.st.measure(secs, tr)
	if err != nil {
		p.st.close()
		return nil, err
	}
	p.steal = math.NaN()
	if total1, steal1, ok1 := hostCPU(); ok0 && ok1 && total1 > total0 {
		p.steal = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	res.e2e["setup_s"] = metric{median(p.setup), "s", len(p.setup), "median of set-ups in this run"}
	res.e2e["peak_heap_mb"] = metric{hs.take(), "MiB", 1, "peak live heap during measurement"}
	p.res = res
	return p, nil
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: spmv-suite, serve-json or ingest-mixed")
	seed := flag.Int64("seed", 1, "seed for every generated input and schedule")
	secs := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs untraced and traced and reports per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	ok, err := run(*w, *seed, *secs, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one workload and prints the report; it returns whether every
// output was correct.
func run(w workload, seed int64, secs float64, traced bool) (bool, error) {
	threads := runtime.GOMAXPROCS(0)
	hs := startHeapSampler()
	defer hs.close()

	var out metricSet
	var res *measurement
	var st state
	if !traced {
		p, err := runPhase(w, seed, secs, w.setups, threads, nil, hs)
		if err != nil {
			return false, err
		}
		st, res, out = p.st, p.res, p.res.e2e
		defer st.close()
		printSet("metric", out)
		printSet("workload", res.extra)
		printSteal("measurement", p)
	} else {
		// Untraced and traced halves with identical inputs; the difference
		// of each end-to-end metric is the tracing overhead.
		u, err := runPhase(w, seed, secs/2, 1, threads, nil, hs)
		if err != nil {
			return false, err
		}
		u.st.close()
		u.st = nil // let the collector reclaim it before the traced set-up
		tr := NewTracer()
		t, err := runPhase(w, seed, secs/2, 1, threads, tr, hs)
		if err != nil {
			return false, err
		}
		st, res = t.st, t.res
		defer st.close()
		res.attempted += u.res.attempted
		res.failed += u.res.failed
		res.errs = append(u.res.errs, res.errs...)
		printSet("untraced", u.res.e2e)
		printSet("traced", t.res.e2e)
		printSet("workload", res.extra)
		printSteal("untraced half", u)
		printSteal("traced half", t)
		roof, err := probeRoof()
		if err != nil {
			return false, err
		}
		printRoof(roof)
		out, err = st.layers(tr, roof)
		if err != nil {
			res.fail(fmt.Errorf("per-layer sweep: %w", err))
			out = metricSet{}
		}
		for _, n := range e2eNames {
			a, b := u.res.e2e[n], t.res.e2e[n]
			out["overhead."+n] = metric{b.Value - a.Value, a.Unit, min(a.N, b.N), "traced - untraced"}
		}
		path := filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		if err := tr.WriteFile(path); err != nil {
			return false, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.Spans()), path)
		printSet("layer", out)
	}
	printContext(w, st, seed, threads)
	if !traced {
		roof, err := probeRoof()
		if err != nil {
			return false, err
		}
		printRoof(roof)
	}
	for _, e := range res.errs {
		fmt.Println("FAILED:", e)
	}
	fail := 0.0
	if res.attempted > 0 {
		fail = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("workload fail_frac = %g (%d of %d)\n", fail, res.failed, res.attempted)

	r := result{Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]map[string]any{}}
	for n, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.Correct = false
			fmt.Printf("FAILED: metric %s is %v\n", n, m.Value)
			continue
		}
		r.Metrics[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return r.Correct, nil
}

func printSet(kind string, ms metricSet) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		note := ""
		if m.Note != "" {
			note = "; " + m.Note
		}
		fmt.Printf("%s %s = %.6g %s (n=%d%s)\n", kind, n, m.Value, m.Unit, m.N, note)
	}
}

// printSteal prints how much CPU time the host took from this VM while p
// was measured. The served workloads are CPU-bound, so their times grow
// with it.
func printSteal(what string, p *phase) {
	fmt.Printf("host steal during the %s = %.1f%% of CPU time (/proc/stat)\n", what, p.steal)
}

// hostCPU reads the CPU time counters summed over all CPUs from the first
// line of /proc/stat: the total and the part stolen by the hypervisor. ok
// is false where they cannot be read.
func hostCPU() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// printContext records the host and inputs behind the result.
func printContext(w workload, st state, seed int64, threads int) {
	l2, llc := cacheSizes()
	fmt.Printf("host nproc=%d GOMAXPROCS=%d L2=%s LLC=%s go=%s source=%s\n",
		runtime.NumCPU(), threads, mib(l2), mib(llc), runtime.Version(), sourceID())
	fmt.Printf("inputs workload=%s seed=%d digest=%s\n", w.name, seed, digest(st.matrices()))
	for _, m := range st.matrices() {
		ws := csrBytes(m) + 16*int64(m.coo.Rows())
		fmt.Printf("matrix %s rows=%d nnz=%d csr_ws=%s (%.2fx LLC) hosted=%s\n",
			m.name, m.coo.Rows(), m.coo.Len(), mib(ws), float64(ws)/float64(max(llc, 1)), orDash(m.format))
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func mib(b int64) string { return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20)) }

// cacheSizes reads cpu0's L2 and last-level cache sizes from sysfs (0 when
// unavailable).
func cacheSizes() (l2, llc int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best := 0
	for _, d := range dirs {
		var level int
		var size int64
		if b, err := os.ReadFile(filepath.Join(d, "level")); err == nil {
			fmt.Sscan(string(b), &level)
		}
		if b, err := os.ReadFile(filepath.Join(d, "size")); err == nil {
			s := strings.TrimSpace(string(b))
			mult := int64(1)
			switch {
			case strings.HasSuffix(s, "K"):
				mult, s = 1<<10, strings.TrimSuffix(s, "K")
			case strings.HasSuffix(s, "M"):
				mult, s = 1<<20, strings.TrimSuffix(s, "M")
			}
			fmt.Sscan(s, &size)
			size *= mult
		}
		if level == 2 {
			l2 = size
		}
		if level > best || (level == best && size > llc) {
			best, llc = level, size
		}
	}
	return l2, llc
}

// sourceID names the code measured: the VCS revision when the build
// recorded one, else a digest of the Go sources and module files under the
// current directory (a benchmark checkout carries no VCS data).
func sourceID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil)[:8])
}
