package roofline

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"spmv/internal/memsim"
)

func TestProbeProducesEveryCell(t *testing.T) {
	f, err := Probe(ProbeOptions{
		MaxThreads: 2,
		Samples:    2,
		ArrayLen:   1 << 16,
	})
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	wantCells := len(Kernels()) * len(threadCounts(2))
	if len(f.Results) != wantCells {
		t.Fatalf("got %d cells, want %d", len(f.Results), wantCells)
	}
	seen := map[string]bool{}
	for _, r := range f.Results {
		if r.MeanGBps <= 0 {
			t.Errorf("%s/t%d: non-positive bandwidth %v", r.Kernel, r.Threads, r.MeanGBps)
		}
		if r.Samples != 2 {
			t.Errorf("%s/t%d: %d samples, want 2", r.Kernel, r.Threads, r.Samples)
		}
		seen[r.Kernel] = true
	}
	for _, k := range Kernels() {
		if !seen[k] {
			t.Errorf("kernel %s missing from results", k)
		}
	}
	if f.Schema != Schema || f.Host == "" || f.Cores < 1 {
		t.Errorf("bad provenance: %+v", f)
	}
}

func TestProbeBudgetShrinksArrays(t *testing.T) {
	f, err := Probe(ProbeOptions{
		MaxThreads: 1,
		Samples:    2,
		Budget:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	for _, r := range f.Results {
		if r.ArrayLen >= 1<<22 {
			t.Fatalf("budgeted probe kept full-size arrays (%d elements)", r.ArrayLen)
		}
		if r.ArrayLen < 1<<16 {
			t.Fatalf("budget shrank arrays below the floor (%d elements)", r.ArrayLen)
		}
	}
}

func TestKernelsCompute(t *testing.T) {
	n := 64
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
		c[i] = 2
	}
	copyKernel(b, a)
	for i := range b {
		if b[i] != a[i] {
			t.Fatalf("copy: b[%d]=%v", i, b[i])
		}
	}
	scaleKernel(b, a, 3)
	if b[4] != 12 {
		t.Fatalf("scale: b[4]=%v", b[4])
	}
	triadKernel(a, b, c, 3)
	if a[4] != 12+6 {
		t.Fatalf("triad: a[4]=%v", a[4])
	}
}

func TestFromFileCeilings(t *testing.T) {
	f := &File{Schema: Schema, Host: "h", Results: []Result{
		{Kernel: KernelCopy, Threads: 1, MeanGBps: 5},
		{Kernel: KernelTriad, Threads: 1, MeanGBps: 6},
		{Kernel: KernelCopy, Threads: 4, MeanGBps: 9},
		{Kernel: KernelScale, Threads: 4, MeanGBps: 8},
	}}
	m, err := FromFile(f)
	if err != nil {
		t.Fatalf("FromFile: %v", err)
	}
	if m.Source != SourceProbe || m.Host != "h" {
		t.Fatalf("bad model meta: %+v", m)
	}
	// Best kernel per thread count wins.
	if got := m.CeilingGBps(1); got != 6 {
		t.Errorf("CeilingGBps(1) = %v, want 6", got)
	}
	// Nearest probed count at or below the request.
	if got := m.CeilingGBps(3); got != 6 {
		t.Errorf("CeilingGBps(3) = %v, want 6 (t=1 cell)", got)
	}
	if got := m.CeilingGBps(4); got != 9 {
		t.Errorf("CeilingGBps(4) = %v, want 9", got)
	}
	if got := m.CeilingGBps(64); got != 9 {
		t.Errorf("CeilingGBps(64) = %v, want 9 (largest probed)", got)
	}
	// Below all probed counts: the smallest probed cell.
	if got := m.CeilingGBps(0); got != 6 {
		t.Errorf("CeilingGBps(0) = %v, want 6", got)
	}
	if got := m.MaxThreads(); got != 4 {
		t.Errorf("MaxThreads = %d, want 4", got)
	}
	if got := m.Pct(4.5, 4); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Pct(4.5, 4) = %v, want 0.5", got)
	}
}

func TestFromFileRejectsEmptyAndBadSchema(t *testing.T) {
	if _, err := FromFile(nil); err == nil {
		t.Error("nil file accepted")
	}
	if _, err := FromFile(&File{Schema: Schema}); err == nil {
		t.Error("empty file accepted")
	}
	if _, err := FromFile(&File{Schema: 99, Results: []Result{{Threads: 1, MeanGBps: 1}}}); err == nil {
		t.Error("bad schema accepted")
	}
}

func TestAnalyticModel(t *testing.T) {
	mach := memsim.Clovertown()
	m := Analytic(mach)
	want := mach.PeakGBps()
	if want <= 0 {
		t.Fatalf("Clovertown PeakGBps = %v", want)
	}
	for _, th := range []int{1, 2, 8, 100} {
		if got := m.CeilingGBps(th); got != want {
			t.Errorf("CeilingGBps(%d) = %v, want flat %v", th, got, want)
		}
	}
	if m.Source != SourceAnalytic {
		t.Errorf("source %q", m.Source)
	}
	// The paper models the Clovertown FSB/MCH at ~6.7 GB/s effective.
	if want < 5 || want > 9 {
		t.Errorf("Clovertown analytic peak %v GB/s outside the paper's ballpark", want)
	}
}

func TestPctZeroCeiling(t *testing.T) {
	var m *Model
	if got := m.Pct(5, 1); got != 0 {
		t.Errorf("nil model Pct = %v", got)
	}
	if got := m.CeilingGBps(1); got != 0 {
		t.Errorf("nil model ceiling = %v", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := &File{Host: "box-1", Cores: 2, Results: []Result{
		{Kernel: KernelTriad, Threads: 2, ArrayLen: 100, SweepsPerSample: 1,
			Samples: 3, MeanGBps: 7.5, StddevGBps: 0.2},
	}}
	path := DefaultPath(dir, f.Host)
	if want := filepath.Join(dir, "ROOF_box-1.json"); path != want {
		t.Fatalf("DefaultPath = %q, want %q", path, want)
	}
	if err := WriteFile(path, f); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Host != f.Host || len(got.Results) != 1 || got.Results[0].MeanGBps != 7.5 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file read without error")
	}
}

func TestDefaultPathSanitizes(t *testing.T) {
	if got := DefaultPath("d", "host/with spaces"); got != filepath.Join("d", "ROOF_host-with-spaces.json") {
		t.Errorf("DefaultPath = %q", got)
	}
	if got := DefaultPath("d", ""); got != filepath.Join("d", "ROOF_unknown.json") {
		t.Errorf("DefaultPath(\"\") = %q", got)
	}
}

func TestDriftFlagsBandwidthLoss(t *testing.T) {
	cell := func(gbps, stddev float64) *File {
		return &File{Schema: Schema, Host: "h", Results: []Result{
			{Kernel: KernelTriad, Threads: 2, ArrayLen: 1 << 20, SweepsPerSample: 1,
				Samples: 5, MeanGBps: gbps, StddevGBps: stddev},
		}}
	}
	// 40% bandwidth loss with tight spread: significant regression.
	regs, err := Drift(cell(10, 0.05), cell(6, 0.05), 0.10)
	if err != nil {
		t.Fatalf("Drift: %v", err)
	}
	if len(regs) != 1 {
		t.Fatalf("40%% loss not flagged: %v", regs)
	}
	// Identical distributions: clean.
	regs, err = Drift(cell(10, 0.05), cell(10, 0.05), 0.10)
	if err != nil {
		t.Fatalf("Drift: %v", err)
	}
	if len(regs) != 0 {
		t.Fatalf("stable probe flagged: %+v", regs)
	}
}

// TestSchemaTwoCostsAndSchemaOneFallback pins the cost side of the
// archive: a schema-2 file's fitted costs survive the round trip and
// CostFor answers from them; a schema-1 file (no costs) still loads,
// and its CostFor answers from the default table.
func TestSchemaTwoCostsAndSchemaOneFallback(t *testing.T) {
	dir := t.TempDir()
	cells := []Result{{Kernel: KernelTriad, Threads: 1, ArrayLen: 1 << 16, SweepsPerSample: 1, Samples: 2, MeanGBps: 7}}
	path := filepath.Join(dir, "ROOF_two.json")
	csr := Cost{RowNS: 3, SlotNS: 1.25}
	if err := WriteFile(path, &File{Host: "h", Results: cells, Costs: map[string]Cost{"csr": csr}}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != 2 || m.Source != SourceProbe {
		t.Fatalf("schema %d, source %q", f.Schema, m.Source)
	}
	if c := m.CostFor("csr"); c != csr {
		t.Errorf("CostFor(csr) = %+v, want the probed %+v", c, csr)
	}

	old := &File{Schema: 1, Host: "h", Results: cells}
	m, err = FromFile(old)
	if err != nil {
		t.Fatalf("schema 1 rejected: %v", err)
	}
	if m.Costs != nil || m.CeilingGBps(1) != 7 {
		t.Errorf("schema 1 model: costs %v, ceiling %v", m.Costs, m.CeilingGBps(1))
	}
	if c := m.CostFor("csr"); c != Default().Costs["csr"] || c == (Cost{}) {
		t.Errorf("schema 1 CostFor(csr) = %+v, want the default entry %+v", c, Default().Costs["csr"])
	}
}

// TestDefaultTable pins the embedded default table: it parses as a
// schema-2 probe archive, carries a bandwidth ceiling at one and two
// threads and a non-negative cost with some positive term for every
// format it lists, and is labelled SourceDefault.
func TestDefaultTable(t *testing.T) {
	m := Default()
	if m.Source != SourceDefault || m.CeilingGBps(1) <= 0 || m.CeilingGBps(2) <= 0 {
		t.Fatalf("default model: source %q, ceilings %v", m.Source, m.Ceilings)
	}
	if len(m.Costs) == 0 {
		t.Fatal("default model carries no costs")
	}
	for name, c := range m.Costs {
		if c.RowNS < 0 || c.UnitNS < 0 || c.SlotNS < 0 || c.RowNS+c.UnitNS+c.SlotNS <= 0 {
			t.Errorf("%s: cost %+v", name, c)
		}
	}
}
