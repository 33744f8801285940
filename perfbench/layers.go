package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"spmv/internal/csrdu"
	"spmv/internal/matfile"
	"spmv/internal/mmio"
	"spmv/internal/obs"
	"spmv/internal/server"
	"spmv/internal/stats"
)

// kernelFormats are the serial kernels the paper compares.
var kernelFormats = []string{"csr", "csr-du", "csr-vi", "csr-du-vi"}

// parallelMinRuns is how many Runner.Run samples a build gets in the
// per-layer sweep when the workload's own measurement gave fewer.
const parallelMinRuns = 30

// sweepIn is what a workload hands the per-layer sweep: its matrices, and
// whatever it already built or measured on them.
type sweepIn struct {
	mats  []*matrix
	cells []*cell // builds the workload made itself
	cg    *cgRun  // a CG solve the workload made itself
	// Upload bodies the workload sent; nil renders the matrices.
	mmBodies, containers [][]byte
	// The server's snapshot after the workload's HTTP phases, and the
	// client-side outcomes (open: the open-loop ones). A nil snap makes
	// the sweep host the matrices itself for a short closed loop.
	snap      *server.MetricsSnapshot
	ids       []string // server matrix id of each op key
	all, open []outcome
}

// sweep measures every layer on the workload's own inputs and returns the
// per-layer metrics. tr must be non-nil.
func sweep(in *sweepIn, threads int, tr *Tracer, roof *roofInfo) (metricSet, error) {
	ms := metricSet{}
	root := tr.Begin("layers", 0, 0)
	defer tr.End(root)

	cells := map[*matrix]map[string]*cell{}
	for _, m := range in.mats {
		cells[m] = map[string]*cell{}
	}
	for _, c := range in.cells {
		cells[c.m][c.format] = c
	}
	var owned []*cell
	defer func() {
		for _, c := range owned {
			c.close()
		}
	}()
	for _, m := range in.mats {
		for _, f := range append(append([]string(nil), kernelFormats...), "auto") {
			if cells[m][f] == nil {
				c, err := buildCell(m, f, threads, tr, root)
				if err != nil {
					return nil, err
				}
				cells[m][f] = c
				owned = append(owned, c)
			}
		}
	}
	n := len(in.mats)

	// kernels and encoders
	serial := map[*cell]float64{}
	serialOf := func(c *cell) (float64, error) {
		if t, ok := serial[c]; ok {
			return t, nil
		}
		t, err := serialTime(c, tr, root)
		serial[c] = t
		return t, err
	}
	for _, f := range kernelFormats {
		var nsNNZ, gbps []float64
		var buildMs float64
		var size, nnz int64
		for _, m := range in.mats {
			c := cells[m][f]
			t, err := serialOf(c)
			if err != nil {
				return nil, err
			}
			nsNNZ = append(nsNNZ, t/float64(c.f.NNZ())*1e9)
			gbps = append(gbps, float64(obs.BytesPerSpMV(c.f))/t/1e9)
			buildMs += c.buildSecs * 1e3
			size += c.f.SizeBytes()
			nnz += int64(c.f.NNZ())
		}
		g := geomean(gbps)
		ms["kernel.ns_per_nnz."+f] = metric{geomean(nsNNZ), "ns", n, "serial Format.SpMV, geomean over matrices"}
		ms["kernel.gbps."+f] = metric{g, "GB/s", n, "computed bytes (obs.BytesPerSpMV) / median time"}
		ms["kernel.pct_roof."+f] = metric{100 * g / roof.triad1, "%", n, "of the 1-thread triad probe"}
		ms["build_ms."+f] = metric{buildMs, "ms", n, "formats.Build, summed over matrices"}
		ms["bytes_per_nnz."+f] = metric{float64(size) / float64(nnz), "B", n, "exact SizeBytes / nnz"}
	}
	var units, ctl, duNNZ int
	for _, m := range in.mats {
		du, ok := cells[m]["csr-du"].f.(*csrdu.Matrix)
		if !ok {
			return nil, fmt.Errorf("csr-du build of %s is %T", m.name, cells[m]["csr-du"].f)
		}
		p := du.Profile(0)
		units, ctl, duNNZ = units+p.Units, ctl+p.CtlBytes, duNNZ+du.NNZ()
	}
	ms["csrdu.nnz_per_unit"] = metric{float64(duNNZ) / float64(units), "nnz", n, "exact, (*csrdu.Matrix).Profile"}
	ms["csrdu.ctl_bytes_per_nnz"] = metric{float64(ctl) / float64(duNNZ), "B", n, "exact, (*csrdu.Matrix).Profile"}

	// parallel executor and tuner
	runMed := map[*cell]float64{}
	for _, f := range workloadFormats {
		var runMs, eff, imb, wait []float64
		for _, m := range in.mats {
			c := cells[m][f]
			for len(c.times) < parallelMinRuns {
				if err := c.run(tr, root); err != nil {
					return nil, err
				}
			}
			t := median(c.times)
			runMed[c] = t
			st, err := serialOf(c)
			if err != nil {
				return nil, err
			}
			snap := c.rec.Snapshot()
			runMs = append(runMs, t*1e3)
			eff = append(eff, st/(float64(threads)*t))
			imb = append(imb, snap.MeanTimeImbalance)
			busy := snap.Busy.Seconds() / (snap.Wall.Seconds() * float64(threads))
			wait = append(wait, 1-busy)
		}
		ms["parallel.run_ms."+f] = metric{geomean(runMs), "ms", n, fmt.Sprintf("median Runner.Run at %d threads, geomean", threads)}
		ms["parallel.efficiency."+f] = metric{geomean(eff), "ratio", n, "serial time / (threads * Run time)"}
		ms["parallel.imbalance."+f] = metric{stats.Summarize(imb).Avg, "ratio", n, "Recorder mean time imbalance (1 = even)"}
		ms["parallel.wait_frac."+f] = metric{stats.Summarize(wait).Avg, "ratio", n, "1 - busy / (wall * threads), Recorder chunks"}
	}
	var tuneMs float64
	var regret []float64
	for _, m := range in.mats {
		a := cells[m]["auto"]
		tuneMs += a.tuneSecs * 1e3
		best := min(runMed[cells[m]["csr"]], runMed[cells[m]["csr-du"]], runMed[cells[m]["csr-vi"]])
		regret = append(regret, runMed[a]/best)
	}
	ms["autotune.tune_ms"] = metric{tuneMs, "ms", n, "analytic Tune, summed over matrices"}
	ms["autotune.regret"] = metric{geomean(regret), "ratio", n, "auto median Run / fastest of csr, csr-du, csr-vi; geomean"}

	// solver
	cg := in.cg
	if cg == nil {
		for _, m := range in.mats {
			if m.spd {
				r, err := solveCG(cells[m]["auto"], tr)
				if err != nil {
					return nil, err
				}
				cg = &r
				break
			}
		}
	}
	if cg == nil {
		return nil, fmt.Errorf("no SPD matrix to solve")
	}
	ms["solver.iters"] = metric{float64(cg.res.Iterations), "count", 1, "CG to 1e-8, exact"}
	ms["solver.spmv_share"] = metric{tr.ChildShare("solver.CG", "Operator.Mul"), "ratio", 1, "Operator.Mul time / solve time, from spans"}

	if err := codecLayer(ms, in.mats, tr, root); err != nil {
		return nil, err
	}
	if err := ingestLayer(ms, in, cells, tr, root); err != nil {
		return nil, err
	}
	if in.snap == nil {
		if err := probeServer(in, tr); err != nil {
			return nil, err
		}
	}
	serverLayer(ms, in)

	ms["roof.triad_gbps.t1"] = metric{roof.triad1, "GB/s", roof.samples, roof.note}
	ms["roof.triad_gbps.tN"] = metric{roof.triadN, "GB/s", roof.samples, roof.note}
	return ms, nil
}

// serialTime is the median time of c's serial Format.SpMV over at least
// three and up to ten repetitions (0.3 s budget), each product checked.
func serialTime(c *cell, tr *Tracer, parent int) (float64, error) {
	y := make([]float64, c.m.coo.Rows())
	c.f.SpMV(y, c.m.xs[0]) // warm caches and pages
	var ts []float64
	start := time.Now()
	for len(ts) < 3 || (len(ts) < 10 && time.Since(start) < 300*time.Millisecond) {
		sp := tr.Begin("Format.SpMV/"+c.format, parent, 0)
		t := time.Now()
		c.f.SpMV(y, c.m.xs[0])
		ts = append(ts, time.Since(t).Seconds())
		tr.End(sp)
		if err := checkProduct(y, c.m.refs[0]); err != nil {
			return 0, fmt.Errorf("serial %s on %s: %w", c.format, c.m.name, err)
		}
	}
	return median(ts), nil
}

// timed returns the median wall time of fn over reps calls, in ms.
func timed(reps int, tr *Tracer, name string, parent int, fn func() error) (float64, error) {
	var ts []float64
	for k := 0; k < reps; k++ {
		sp := tr.Begin(name, parent, 0)
		t := time.Now()
		err := fn()
		ts = append(ts, time.Since(t).Seconds()*1e3)
		tr.End(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(ts), nil
}

// codecLayer times the server's wire types through encoding/json on the
// workload's own vectors: decoding a request, encoding an answer.
func codecLayer(ms metricSet, mats []*matrix, tr *Tracer, parent int) error {
	var dec, enc []float64
	for _, m := range mats {
		for xi, x := range m.xs {
			body, err := multiplyBody(x)
			if err != nil {
				return err
			}
			d, err := timed(3, tr, "json.Decode/MultiplyRequest", parent, func() error {
				var req server.MultiplyRequest
				if err := json.Unmarshal(body, &req); err != nil {
					return err
				}
				if len(req.X) != len(x) {
					return fmt.Errorf("decoded %d entries, want %d", len(req.X), len(x))
				}
				return nil
			})
			if err != nil {
				return err
			}
			e, err := timed(3, tr, "json.Encode/MultiplyResponse", parent, func() error {
				_, err := json.Marshal(server.MultiplyResponse{Y: m.refs[xi]})
				return err
			})
			if err != nil {
				return err
			}
			dec, enc = append(dec, d), append(enc, e)
		}
	}
	ms["codec.decode_ms"] = metric{median(dec), "ms", len(dec), "MultiplyRequest via encoding/json, median over vectors"}
	ms["codec.encode_ms"] = metric{median(enc), "ms", len(enc), "MultiplyResponse via encoding/json, median over vectors"}
	return nil
}

// ingestLayer times mmio.Read and matfile.ReadSized on the workload's upload
// bodies, or on its matrices rendered as such when it sends none.
func ingestLayer(ms metricSet, in *sweepIn, cells map[*matrix]map[string]*cell, tr *Tracer, parent int) error {
	if in.mmBodies == nil {
		for _, m := range in.mats {
			b, err := mmBody(m)
			if err != nil {
				return err
			}
			in.mmBodies = append(in.mmBodies, b)
		}
	}
	if in.containers == nil {
		for _, m := range in.mats {
			var b bytes.Buffer
			if err := matfile.Write(&b, cells[m]["csr-du"].f); err != nil {
				return fmt.Errorf("matfile write %s: %w", m.name, err)
			}
			in.containers = append(in.containers, b.Bytes())
		}
	}
	var mm, mf []float64
	for _, body := range in.mmBodies {
		t, err := timed(1, tr, "mmio.Read", parent, func() error {
			c, err := mmio.Read(bytes.NewReader(body))
			if err == nil && c.Len() == 0 {
				err = fmt.Errorf("empty matrix")
			}
			return err
		})
		if err != nil {
			return err
		}
		mm = append(mm, t)
	}
	for _, body := range in.containers {
		t, err := timed(1, tr, "matfile.ReadSized", parent, func() error {
			f, err := matfile.ReadSized(bytes.NewReader(body), int64(len(body)))
			if err == nil && f.NNZ() == 0 {
				err = fmt.Errorf("empty matrix")
			}
			return err
		})
		if err != nil {
			return err
		}
		mf = append(mf, t)
	}
	ms["mmio.read_ms"] = metric{median(mm), "ms", len(mm), "mmio.Read, median over bodies"}
	ms["matfile.read_ms"] = metric{median(mf), "ms", len(mf), "matfile.ReadSized, median over bodies"}
	return nil
}

// probeSeconds is the closed loop a workload without HTTP traffic runs to
// measure the server layers on its own matrices.
const probeSeconds = 3

// probeServer hosts the workload's matrices from their matfile containers
// and multiplies them closed loop on one connection.
func probeServer(in *sweepIn, tr *Tracer) error {
	hs, err := hostMatrices(server.Config{MaxUploadBytes: 1 << 30, MemoryBudget: 1 << 32}, in.mats, in.containers, tr, 0)
	if err != nil {
		return err
	}
	defer hs.close()
	k := 0
	out, _ := closedLoop(func() *op {
		k++
		return hs.multiplyOp(k%len(hs.mats), 0, true)
	}, 1, probeSeconds*time.Second, tr, 1)
	for _, o := range out {
		if o.err != nil {
			return o.err
		}
	}
	snap := hs.h.srv.Snapshot()
	in.snap, in.ids, in.all, in.open = &snap, hs.ids, out, out
	return nil
}

// serverLayer reads the spans the server records itself. Quantiles are
// per-matrix histogram estimates averaged with request-count weights.
func serverLayer(ms metricSet, in *sweepIn) {
	snap := in.snap
	for _, span := range server.SpanNames() {
		var p50, p99, cnt float64
		for _, mm := range snap.Matrices {
			h := mm.Spans[span]
			w := float64(h.Count)
			p50 += w * float64(h.P50Ns)
			p99 += w * float64(h.P99Ns)
			cnt += w
		}
		note := "server span histogram, count-weighted over matrices"
		if span == server.SpanAdmission {
			note = "includes the JSON body decode; " + note
		}
		ms["server."+span+"_ms_p50"] = metric{p50 / cnt / 1e6, "ms", int(cnt), note}
		ms["server."+span+"_ms_p99"] = metric{p99 / cnt / 1e6, "ms", int(cnt), note}
	}
	var panels, width int64
	for k, c := range snap.CoalesceWidths {
		w, err := strconv.Atoi(k)
		if err != nil {
			continue // the server writes decimal widths
		}
		panels += c
		width += int64(w) * c
	}
	ms["server.coalesce_width_mean"] = metric{float64(width) / float64(max(panels, 1)), "requests", int(panels), "requests per executed panel"}
	ms["server.shed"] = metric{float64(snap.Shed), "count", 1, ""}
	ms["server.evictions"] = metric{float64(snap.Evictions), "count", 1, ""}
	ms["server.cache_hits"] = metric{float64(snap.BuildCacheHits), "count", 1, ""}

	// Per hosted matrix: the client's mean round trip minus the server's
	// mean total, weighted by the matrix's requests. Means, because the
	// server's sums are exact while its quantiles are bucket estimates that
	// can overshoot by more than the transport takes.
	rt := map[int][]float64{}
	for _, o := range in.all {
		if o.op.ct == "application/json" {
			rt[o.op.key] = append(rt[o.op.key], o.roundTrip())
		}
	}
	var transport float64
	var nrt int
	for key, ts := range rt {
		h := snap.Matrices[in.ids[key]].Spans[server.SpanTotal]
		total := float64(h.SumNs) / float64(h.Count) / 1e6
		transport += float64(len(ts)) * (stats.Summarize(ts).Avg*1e3 - total)
		nrt += len(ts)
	}
	ms["client.transport_ms_mean"] = metric{transport / float64(nrt), "ms", nrt,
		"client round trip mean - server total mean, per matrix, request-weighted"}
	var lag []float64
	for _, o := range in.open {
		lag = append(lag, o.lag())
	}
	q := tail(lag, 99)
	ms["gen.lag_ms_p99"] = metric{q.Value * 1e3, "ms", q.N, fmt.Sprintf("p%d of send - due", q.P)}
}
