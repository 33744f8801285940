package autotune

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/matgen"
	"spmv/internal/prof/archive"
	"spmv/internal/roofline"
)

// rec builds a synthetic archive cell with enough samples and spread
// for the Welch path.
func rec(matrix, format string, threads int, mean, stddev float64, gbps float64) archive.Record {
	return archive.Record{
		Name: archive.CellName(matrix, format, threads), Matrix: matrix,
		Format: format, Threads: threads, Iters: 10, Samples: 5,
		MeanSecs: mean, StddevSecs: stddev, BytesPerIter: 1 << 20, GBps: gbps,
	}
}

func TestPriorsBlendScores(t *testing.T) {
	// csr-du measured 2x the bandwidth of csr on this host, clearly
	// outside noise; csr-vi measured indistinguishable from csr.
	recs := []archive.Record{
		rec("m1", "csr", 2, 1.0e-3, 1e-5, 10),
		rec("m1", "csr-du", 2, 0.5e-3, 1e-5, 20),
		rec("m1", "csr-vi", 2, 1.0e-3, 1e-4, 10.01),
	}
	priors := loadPriors(recs, 2)
	if p, ok := priors["csr-du"]; !ok || !p.Significant {
		t.Fatalf("csr-du prior not significant: %+v", priors)
	}
	if p, ok := priors["csr-vi"]; ok && p.Significant {
		t.Fatalf("csr-vi prior should not be significant: %+v", p)
	}

	cands := []Candidate{
		{Spec: formats.Spec{Format: "csr-du"}, PredBytes: 1000, Feasible: true, Score: 1000},
		{Spec: formats.Spec{Format: "csr-vi"}, PredBytes: 900, Feasible: true, Score: 900},
	}
	applyPriors(cands, priors)
	if !cands[0].PriorSignificant || cands[0].Score >= 1000 {
		t.Errorf("significant 2x prior should halve csr-du's score: %+v", cands[0])
	}
	if cands[1].PriorSignificant || cands[1].Score != 900 {
		t.Errorf("insignificant prior must leave csr-vi untouched: %+v", cands[1])
	}
	// The blend flips the order: measured bandwidth outweighs the 10%
	// analytic size edge.
	rank(cands)
	if cands[0].Spec.Name() != "csr-du" {
		t.Errorf("prior-blended ranking should prefer csr-du, got %q", cands[0].Spec.Name())
	}
}

func TestPriorsMissingArchiveIsClean(t *testing.T) {
	c := matgen.Stencil2D(16)
	rep, err := Tune(c, Options{Threads: 1, ArchivePath: filepath.Join(t.TempDir(), "BENCH_none.json")})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if rep.ArchiveNote != "" || rep.PriorsUsed {
		t.Errorf("missing archive should be silent: note=%q priors=%v", rep.ArchiveNote, rep.PriorsUsed)
	}
}

// TestProbeRefinement runs the measured stage end to end: the report
// carries probe timings, the winner is never Welch-significantly
// slower than the plain-CSR baseline, and the results land in the
// archive for the next run to use as priors.
func TestProbeRefinement(t *testing.T) {
	c := matgen.RandomUniform(rand.New(rand.NewSource(31)), 600, 600, 8, matgen.Values{})
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	rep, err := Tune(c, Options{
		Threads: 2, Budget: 300 * time.Millisecond, TopK: 2,
		ArchivePath: path, MatrixName: "probe-test",
	})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if !rep.Probed || rep.ProbeIters < 1 {
		t.Fatalf("probe stage did not run: %+v", rep)
	}
	if !rep.Candidates[0].Probed {
		t.Errorf("winner was not probed")
	}
	if rep.VsCSR != nil && rep.VsCSR.Significant && rep.VsCSR.Delta > 0 {
		t.Errorf("probe-refined winner is Welch-significantly slower than csr: %+v", rep.VsCSR)
	}
	if rep.ArchiveNote != "" {
		t.Fatalf("archive write failed: %s", rep.ArchiveNote)
	}
	f, err := archive.Load(path)
	if err != nil {
		t.Fatalf("recorded archive: %v", err)
	}
	foundCSR := false
	for _, r := range f.Records {
		if r.Matrix != "probe-test" || r.Samples < 2 || r.MeanSecs <= 0 {
			t.Errorf("malformed probe record: %+v", r)
		}
		if r.Format == "csr" {
			foundCSR = true
		}
	}
	if len(f.Records) < 2 || !foundCSR {
		t.Errorf("expected >= 2 probe records including the csr baseline, got %+v", f.Records)
	}
}

// TestBuildHybridSelectsPerRegion exercises the autotuned hybrid on a
// matrix whose halves want different formats: a banded top and a
// quantized random bottom. The build must verify and multiply exactly
// like the reference.
func TestBuildHybridSelectsPerRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 600
	c := core.NewCOO(n, n)
	banded := matgen.Banded(rng, n/2, 4, 5, matgen.Values{})
	for k := 0; k < banded.Len(); k++ {
		i, j, v := banded.At(k)
		c.Add(i, j, v)
	}
	randPart := matgen.Quantize(
		matgen.RandomUniform(rng, n/2, n, 7, matgen.Values{}), rng, 12)
	for k := 0; k < randPart.Len(); k++ {
		i, j, v := randPart.At(k)
		c.Add(i+n/2, j, v)
	}
	c.Finalize()

	m, err := BuildHybrid(c)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	got := make([]float64, n)
	m.SpMV(got, x)
	want := make([]float64, n)
	c.SpMV(want, x)
	for i := range want {
		if !core.SameBits(got[i], want[i]) && !closeEnough(got[i], want[i]) {
			t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if b > m {
		m = b
	} else if -b > m {
		m = -b
	}
	return d <= 1e-9*(1+m)
}

// bandwidthOnly is the paper's pure-bandwidth regime as a model: the
// given ceiling at every thread count and every in-core cost zero, so
// predicted seconds are predicted bytes over a constant and the
// ranking is the byte ranking.
func bandwidthOnly(gbps float64) *roofline.Model {
	m := &roofline.Model{
		Source: roofline.SourceProbe, Host: "t", Ceilings: map[int]float64{0: gbps},
		Costs: map[string]roofline.Cost{},
	}
	for _, f := range CostFormats() {
		m.Costs[f] = roofline.Cost{}
	}
	return m
}

// TestSymmetricMatrixPicksSymCSR pins the symmetry feature's payoff in
// the pure-bandwidth regime: on a numerically symmetric matrix with
// incompressible values, the halved off-diagonal storage wins.
func TestSymmetricMatrixPicksSymCSR(t *testing.T) {
	c := matgen.Symmetrize(matgen.RandomUniform(rand.New(rand.NewSource(51)), 800, 800, 9, matgen.Values{}))
	rep, err := Tune(c, Options{Threads: 2, Roofline: bandwidthOnly(10)})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if rep.Chosen.Name() != "sym-csr" {
		best := rep.Candidates[0]
		t.Errorf("symmetric matrix chose %q (pred %d); sym-csr should win", best.Spec.Name(), best.PredBytes)
	}
}

// specKey renders a Spec as a comparable ranking identity.
func specKey(s formats.Spec) string {
	return fmt.Sprintf("%s/%s/steal=%v", s.Name(), s.Partition, s.Steal)
}

// TestRooflinePriorKeepsRankingMonotonic pins that, in the
// pure-bandwidth regime, the ceiling only restates scores as predicted
// seconds without changing the ranking: same ordering whatever the
// ceiling, Score == PredSecs (prior-free), and the report carries the
// ceiling it priced the bytes at.
func TestRooflinePriorKeepsRankingMonotonic(t *testing.T) {
	c := matgen.RandomUniform(rand.New(rand.NewSource(7)), 600, 600, 8, matgen.Values{})
	plain, err := Tune(c, Options{Threads: 2, Roofline: bandwidthOnly(1)})
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	m := bandwidthOnly(0)
	m.Ceilings = map[int]float64{2: 10}
	roofed, err := Tune(c, Options{Threads: 2, Roofline: m})
	if err != nil {
		t.Fatalf("roofed: %v", err)
	}
	if roofed.CeilingGBps != 10 || roofed.RooflineSource != roofline.SourceProbe {
		t.Fatalf("report ceiling %v source %q", roofed.CeilingGBps, roofed.RooflineSource)
	}
	if specKey(roofed.Chosen) != specKey(plain.Chosen) {
		t.Fatalf("roofline prior changed the winner: %q vs %q", specKey(roofed.Chosen), specKey(plain.Chosen))
	}
	if len(roofed.Candidates) != len(plain.Candidates) {
		t.Fatalf("candidate counts differ")
	}
	for i := range roofed.Candidates {
		rc, pc := roofed.Candidates[i], plain.Candidates[i]
		if specKey(rc.Spec) != specKey(pc.Spec) {
			t.Fatalf("rank %d differs: %q vs %q", i, specKey(rc.Spec), specKey(pc.Spec))
		}
		if !rc.Feasible {
			continue
		}
		wantSecs := float64(rc.PredBytes) / 1e10
		if diff := rc.PredSecs - wantSecs; diff > 1e-15 || diff < -1e-15 {
			t.Errorf("%s: PredSecs %v, want %v", specKey(rc.Spec), rc.PredSecs, wantSecs)
		}
		if diff := rc.Score - wantSecs; diff > 1e-15 || diff < -1e-15 {
			t.Errorf("%s: Score %v not restated as seconds %v", specKey(rc.Spec), rc.Score, wantSecs)
		}
	}
}

// rankKeys renders a ranking as spec keys, best first.
func rankKeys(cands []Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = specKey(c.Spec)
	}
	return out
}

// TestZeroCostsReproduceByteRanking pins the paper's regime as a
// special case of the time model: with every in-core cost zero the
// ranking is exactly the byte ranking (feasible first, ascending
// predicted bytes, ties in candidate order).
func TestZeroCostsReproduceByteRanking(t *testing.T) {
	for name, c := range shapes() {
		rep, err := Tune(c, Options{Threads: 2, Roofline: bandwidthOnly(7)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := Candidates(Extract(c))
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Feasible != want[j].Feasible {
				return want[i].Feasible
			}
			return want[i].PredBytes < want[j].PredBytes
		})
		if got, w := rankKeys(rep.Candidates), rankKeys(want); !slices.Equal(got, w) {
			t.Errorf("%s: zero-cost ranking\n got %v\nwant %v", name, got, w)
		}
	}
}

// TestDecodeBoundCostsRankCSRFirst is the deterministic test of the
// time model's purpose: with costs under which CSR-DU decode is
// compute-bound (at 40 GB/s a non-zero's 8–12 bytes take 0.2–0.3 ns,
// well under the per-slot and per-unit decode work), matrices shaped
// like the benchmark's femlike and random-q200 rank csr or csr-vi
// above csr-du and csr-du-vi — while the byte ranking of the same
// matrices puts the DU family first.
func TestDecodeBoundCostsRankCSRFirst(t *testing.T) {
	decodeBound := &roofline.Model{
		Source: roofline.SourceProbe, Ceilings: map[int]float64{0: 40},
		Costs: map[string]roofline.Cost{
			"csr":       {RowNS: 3, SlotNS: 1},
			"csr-vi":    {RowNS: 3, SlotNS: 1.4},
			"csr-du":    {UnitNS: 10, SlotNS: 1.3},
			"csr-du-vi": {UnitNS: 8, SlotNS: 5},
		},
	}
	rng := rand.New(rand.NewSource(71))
	for name, c := range map[string]*core.COO{
		"femlike":     matgen.FEMLike(rng, 3000, 5, matgen.Values{}),
		"random-q200": matgen.RandomUniform(rng, 3000, 3000, 7, matgen.Values{Unique: 200}),
	} {
		pos := func(rep *Report) map[string]int {
			at := map[string]int{}
			for i, cand := range rep.Candidates {
				if _, seen := at[cand.Spec.Name()]; !seen && cand.Feasible {
					at[cand.Spec.Name()] = i
				}
			}
			return at
		}
		bytes, err := Tune(c, Options{Threads: 2, Roofline: bandwidthOnly(10)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b := pos(bytes); b["csr-du"] > b["csr"] && b["csr-du-vi"] > b["csr"] {
			t.Fatalf("%s: the byte ranking already puts csr first; the shape does not exercise the flip", name)
		}
		rep, err := Tune(c, Options{Threads: 2, Roofline: decodeBound})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		at := pos(rep)
		best := min(at["csr"], at["csr-vi"])
		if best > at["csr-du"] || best > at["csr-du-vi"] {
			t.Errorf("%s: decode-bound costs ranked %v; want csr or csr-vi above csr-du and csr-du-vi", name, rankKeys(rep.Candidates))
		}
		if n := rep.Chosen.Name(); n == "csr-du" || n == "csr-du-vi" {
			t.Errorf("%s: decode-bound costs chose %s", name, n)
		}
	}
}

// TestCostSourceReported pins the report's provenance labels: the
// default table without a model or with a cost-less (schema 1) one,
// the probe's fit with a schema-2 model.
func TestCostSourceReported(t *testing.T) {
	c := matgen.Stencil2D(12)
	schema1 := &roofline.Model{Source: roofline.SourceProbe, Ceilings: map[int]float64{1: 5}}
	for _, tc := range []struct {
		m          *roofline.Model
		roof, cost string
	}{
		{nil, roofline.SourceDefault, roofline.SourceDefault},
		{schema1, roofline.SourceProbe, roofline.SourceDefault},
		{bandwidthOnly(5), roofline.SourceProbe, roofline.SourceProbe},
	} {
		rep, err := Tune(c, Options{Threads: 1, Roofline: tc.m})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RooflineSource != tc.roof || rep.CostSource != tc.cost || rep.CeilingGBps <= 0 {
			t.Errorf("model %+v: roofline %q cost %q ceiling %v; want %q, %q", tc.m, rep.RooflineSource, rep.CostSource, rep.CeilingGBps, tc.roof, tc.cost)
		}
		if rep.ChosenPredSecs <= 0 || rep.ChosenPredSecs != rep.Candidates[0].PredSecs {
			t.Errorf("model %+v: chosen predicted %v s", tc.m, rep.ChosenPredSecs)
		}
	}
}
