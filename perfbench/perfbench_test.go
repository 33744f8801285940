package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"spmv/internal/core"
	"spmv/internal/parallel"
	"spmv/internal/server"
)

// A handler that stalls once: requests due during the stall wait for the
// one connection, and the open-loop generator charges them the wait.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !first.Swap(true) {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	var ops []*op
	for i := 0; i < 12; i++ {
		ops = append(ops, &op{due: time.Duration(i) * 40 * time.Millisecond, url: srv.URL, ct: "text/plain",
			check: func(status int, _ []byte) error {
				if status != http.StatusOK {
					return errors.New("bad status")
				}
				return nil
			}})
	}
	out := openLoop(ops, 1, nil, 0)
	var lags []float64
	for i, o := range out {
		if o.err != nil {
			t.Fatalf("op %d: %v", i, o.err)
		}
		lags = append(lags, o.lag())
		// Every request due before the stall ends is answered after it.
		if o.due < stall && o.due > 0 {
			if want := (stall - o.due).Seconds(); o.latency() < want*0.95 {
				t.Errorf("op %d due %v: latency %.3fs, want >= %.3fs", i, o.due, o.latency(), want)
			}
			if o.lag() <= 0 {
				t.Errorf("op %d due %v: no lag reported", i, o.due)
			}
		}
	}
	if got := percentile(lags, 100); got < (stall - 60*time.Millisecond).Seconds() {
		t.Errorf("max lag %.3fs, want about the stall", got)
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n, maxP, wantP int
		want           float64
	}{
		{1000, 99, 99, 990},
		{2000, 99, 99, 1980},
		{100, 99, 90, 90},
		{150, 99, 93, 140},
		{100, 90, 90, 90},
		{40, 99, 75, 30},
		{15, 99, 50, 8}, // too few samples: the median, flagged by P
	} {
		q := tail(seq(c.n), c.maxP)
		if q.P != c.wantP || q.Value != c.want || q.N != c.n {
			t.Errorf("n=%d: got p%d=%v (n=%d), want p%d=%v", c.n, q.P, q.Value, q.N, c.wantP, c.want)
		}
		if q.P > 50 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > q.Value {
					beyond++
				}
			}
			if beyond < tailMinBeyond {
				t.Errorf("n=%d: only %d samples beyond p%d", c.n, beyond, q.P)
			}
		}
	}
}

func smallShapes() []shape {
	return []shape{
		{name: "stencil", kind: "stencil3d", rows: 512, format: "csr"},
		{name: "fem", kind: "femlike", rows: 700, format: "csr-du"},
		{name: "rand", kind: "random-q200", rows: 600, format: "csr-vi"},
		{name: "band", kind: "banded", rows: 800, format: "auto"},
	}
}

func inputsFor(t *testing.T, seed int64) []*matrix {
	rng := rand.New(rand.NewSource(seed))
	var ms []*matrix
	for _, s := range smallShapes() {
		m, err := makeMatrix(rng, s, 2)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := inputsFor(t, 7), inputsFor(t, 7), inputsFor(t, 8)
	if digest(a) != digest(b) {
		t.Fatalf("same seed, different digests")
	}
	if digest(a) == digest(c) {
		t.Fatalf("different seeds, same digest")
	}
	for i := range a {
		if a[i].coo.Rows() != c[i].coo.Rows() || a[i].coo.Cols() != c[i].coo.Cols() {
			t.Errorf("%s: shape changed with the seed", a[i].name)
		}
	}
}

// perturbFormat is a format stub whose products are wrong in one element.
type perturbFormat struct{ core.Format }

func (p perturbFormat) SpMV(y, x []float64) {
	p.Format.SpMV(y, x)
	y[len(y)/2] += 1e-6
}

// perturbRunner is the same for an executor.
type perturbRunner struct{ parallel.Runner }

func (p perturbRunner) Run(y, x []float64) error {
	err := p.Runner.Run(y, x)
	y[len(y)/2] += 1e-6
	return err
}

func TestPerturbedOutputIsAFailure(t *testing.T) {
	st := &suiteState{threads: 2}
	for _, m := range inputsFor(t, 1)[:2] {
		st.mats = append(st.mats, m)
		for _, f := range workloadFormats {
			c, err := buildCell(m, f, 2, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			st.cells = append(st.cells, c)
		}
	}
	defer st.close()

	bad := st.cells[5]
	if _, err := serialTime(&cell{m: bad.m, format: "stub", f: perturbFormat{bad.f}}, nil, 0); err == nil {
		t.Errorf("serial kernel with a perturbed element passed the check")
	}

	res, err := st.measure(0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("clean run failed: %v", res.errs)
	}
	bad.runner = perturbRunner{bad.runner}
	res, err = st.measure(0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	rounds := len(bad.times)
	if res.failed != rounds || rounds == 0 {
		t.Errorf("failed = %d, want one per run of the perturbed build (%d)", res.failed, rounds)
	}
}

func TestVerifierRejectsPerturbedAnswer(t *testing.T) {
	ms := inputsFor(t, 3)
	good, err := json.Marshal(server.MultiplyResponse{Y: ms[0].refs[1]})
	if err != nil {
		t.Fatal(err)
	}
	y := append([]float64(nil), ms[0].refs[1]...)
	y[3] *= 1 + 1e-6
	bad, err := json.Marshal(server.MultiplyResponse{Y: y})
	if err != nil {
		t.Fatal(err)
	}
	v := &verifier{mats: ms, bodies: map[[2]int][]byte{{0, 1}: good}}
	for _, full := range []bool{true, false} {
		check := v.checker(0, 1, full)
		if err := check(http.StatusOK, good); err != nil {
			t.Errorf("full=%v: correct answer rejected: %v", full, err)
		}
		if err := check(http.StatusOK, bad); err == nil {
			t.Errorf("full=%v: perturbed answer accepted", full)
		}
		if err := check(http.StatusTooManyRequests, good); err == nil {
			t.Errorf("full=%v: non-2xx answer accepted", full)
		}
	}
}
