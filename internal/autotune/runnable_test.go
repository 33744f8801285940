package autotune

import (
	"math"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/matgen"
	"spmv/internal/parallel"
	"spmv/internal/testmat"
)

// TestFeasibleCandidatesRun is the runnability conformance test for
// tuner picks: every spec Candidates marks feasible must build, start
// under parallel.New with exactly the spec's scheduler hints at 1, 2
// and 4 threads, and multiply like serial CSR to 1e-10 relative. A
// spec the executor rejects can then never be a tuner's answer.
func TestFeasibleCandidatesRun(t *testing.T) {
	mats := map[string]*core.COO{}
	for _, tc := range testmat.Corpus() {
		mats["testmat/"+tc.Name] = tc.COO
	}
	for name, c := range shapes() {
		mats[name] = c
	}
	rng := rand.New(rand.NewSource(81))
	mats["stencil3d"] = matgen.Stencil3D(8)
	mats["symmetric"] = matgen.Symmetrize(matgen.RandomUniform(rng, 300, 300, 6, matgen.Values{}))
	mats["random-q200"] = matgen.RandomUniform(rng, 500, 500, 7, matgen.Values{Unique: 200})
	mats["powerlaw"] = matgen.PowerLaw(rng, 500, 6, 0.8, matgen.Values{})

	for name, c := range mats {
		c.Finalize()
		ref, err := formats.Build("csr", c)
		if err != nil {
			t.Fatalf("%s: reference csr: %v", name, err)
		}
		x := testmat.RandVec(rng, c.Cols())
		want := make([]float64, c.Rows())
		ref.SpMV(want, x)
		scale := 0.0
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		for _, cand := range Candidates(Extract(c)) {
			if !cand.Feasible {
				continue
			}
			key := name + "/" + specKey(cand.Spec)
			f, err := Build(c, cand.Spec)
			if err != nil {
				t.Errorf("%s: build: %v", key, err)
				continue
			}
			for _, k := range []int{1, 2, 4} {
				r, err := parallel.New(f, parallel.ExecOptions{
					Threads: k, Partition: cand.Spec.Partition, Steal: cand.Spec.Steal,
				})
				if err != nil {
					t.Errorf("%s at %d threads: executor: %v", key, k, err)
					continue
				}
				got := make([]float64, c.Rows())
				for i := range got {
					got[i] = math.NaN() // Run must overwrite every row
				}
				err = r.Run(got, x)
				r.Close()
				if err != nil {
					t.Errorf("%s at %d threads: run: %v", key, k, err)
					continue
				}
				for i := range want {
					if !(math.Abs(got[i]-want[i]) <= 1e-10*scale) {
						t.Errorf("%s at %d threads: y[%d] = %v, want %v", key, k, i, got[i], want[i])
						break
					}
				}
			}
		}
	}
}
