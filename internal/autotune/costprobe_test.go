package autotune

import (
	"math"
	"testing"
)

// TestFitNonNegRecoversCosts fits exact synthetic timings: the fit
// must return the generating coefficients, leave an all-zero count
// column at zero, and clamp a column whose free fit goes negative.
func TestFitNonNegRecoversCosts(t *testing.T) {
	want := [3]float64{3, 0, 1.5}
	var xs [][3]float64
	var ts []float64
	for _, x := range [][3]float64{{100, 0, 800}, {400, 0, 800}, {50, 0, 1600}, {1000, 0, 1000}} {
		xs = append(xs, x)
		ts = append(ts, want[0]*x[0]+want[2]*x[2])
	}
	got, err := fitNonNeg(xs, ts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("fit %v, want %v", got, want)
		}
	}
	// Time falling with rows would need a negative row cost: the fit
	// drops that column instead.
	got, err = fitNonNeg([][3]float64{{100, 0, 1000}, {200, 0, 1000}, {400, 0, 2000}}, []float64{2000, 1900, 3800})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] < 0 || got[2] <= 0 {
		t.Fatalf("non-negative fit %v", got)
	}
}

// TestFitNonNegBeatsDroppingTheMostNegative pins the exact
// non-negative fit on data where the unconstrained fit's most negative
// coefficient (column 2) belongs to the best non-negative fit: dropping
// it and refitting settles on column 0 alone, with a worse residual.
func TestFitNonNegBeatsDroppingTheMostNegative(t *testing.T) {
	xs := [][3]float64{{5, 1, 5}, {7, 1, 7}, {7, 8, 4}, {9, 4, 9}}
	ts := []float64{7, 7, 1, 5}
	free, err := solveWeighted(xs, ts, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !(free[2] < free[1] && free[1] < 0) {
		t.Fatalf("unconstrained fit %v does not make column 2 the most negative", free)
	}
	col0, err := solveWeighted(xs, ts, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fitNonNeg(xs, ts)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0 || math.Abs(got[2]-0.36213068964160666) > 1e-9 {
		t.Errorf("fit %v, want column 2 alone at 0.3621", got)
	}
	if r, r0 := weightedResidual(xs, ts, got), weightedResidual(xs, ts, [3]float64{col0[0], 0, 0}); !(r < r0) {
		t.Errorf("fit residual %v, not below the column-0 fit's %v", r, r0)
	}
}

// TestFitCostsCoversEveryFormat smokes the microprobe: every CostFormats entry gets a non-negative cost with some
// positive term, so no fitted format is predicted free.
func TestFitCostsCoversEveryFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("times every kernel")
	}
	costs, err := FitCosts()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range CostFormats() {
		c, ok := costs[f]
		if !ok {
			t.Errorf("%s: no fitted cost", f)
			continue
		}
		if c.RowNS < 0 || c.UnitNS < 0 || c.SlotNS < 0 || c.RowNS+c.UnitNS+c.SlotNS <= 0 {
			t.Errorf("%s: cost %+v", f, c)
		}
	}
}
