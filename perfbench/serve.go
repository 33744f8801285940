package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"spmv/internal/formats"
	"spmv/internal/matfile"
	"spmv/internal/mmio"
	"spmv/internal/server"
)

// serve-json hosts four matrices of 30-60k rows, one per compared format.
var serveShapes = []shape{
	{name: "stencil3d-m", kind: "stencil3d", rows: 34 * 34 * 34, format: "csr"},
	{name: "femlike-m", kind: "femlike", rows: 45000, format: "csr-du"},
	{name: "random-m-q200", kind: "random-q200", rows: 50000, format: "csr-vi"},
	{name: "banded-m", kind: "banded", rows: 60000, format: "auto"},
}

// ingest-mixed reads from four smaller resident matrices while it uploads.
var residentShapes = []shape{
	{name: "stencil3d-s", kind: "stencil3d", rows: 28 * 28 * 28, format: "csr"},
	{name: "femlike-s", kind: "femlike", rows: 25000, format: "csr-du"},
	{name: "random-s-q200", kind: "random-q200", rows: 25000, format: "csr-vi"},
	{name: "banded-s", kind: "banded", rows: 30000, format: "auto"},
}

// Load settings, constants of the workloads and never derived from a run.
// serveRate is a little under half the closed-loop saturation of the code
// this benchmark was written against (42-68 requests/s between runs on 2
// vCPUs, median about 50). The ingest rates keep its read connection about
// half busy and its upload connection about a quarter. They also put a
// build-cache hit and an eviction into the five seconds of a traced half
// of a 10 s run.
const (
	serveXs           = 4    // right-hand sides per hosted matrix
	serveRate         = 22.0 // serve-json open-loop multiplies per second
	serveOpenShare    = 0.8  // share of the run spent open loop; the rest is closed loop
	ingestReadRate    = 24.0 // ingest-mixed multiplies per second
	ingestUploadRate  = 1.0  // ingest-mixed uploads per second
	ingestRepeatEvery = 3    // every third upload resends the previous body
)

// mmBody renders a matrix as Matrix Market text.
func mmBody(m *matrix) ([]byte, error) {
	var b bytes.Buffer
	if err := mmio.Write(&b, m.coo); err != nil {
		return nil, fmt.Errorf("mmio write %s: %w", m.name, err)
	}
	return b.Bytes(), nil
}

// csrBytes is the CSR footprint of m, the unit the ingest memory budget is
// sized in.
func csrBytes(m *matrix) int64 { return 12*int64(m.coo.Len()) + 4*int64(m.coo.Rows()+1) }

// generateHosted generates shapes with serveXs right-hand sides each and
// renders them as Matrix Market upload bodies.
func generateHosted(rng *rand.Rand, shapes []shape, tr *Tracer, root int) ([]*matrix, [][]byte, error) {
	var mats []*matrix
	var bodies [][]byte
	for _, s := range shapes {
		sp := tr.Begin("matgen/"+s.name, root, 0)
		m, err := makeMatrix(rng, s, serveXs)
		tr.End(sp)
		if err != nil {
			return nil, nil, err
		}
		b, err := mmBody(m)
		if err != nil {
			return nil, nil, err
		}
		mats = append(mats, m)
		bodies = append(bodies, b)
	}
	return mats, bodies, nil
}

// httpState is the shared part of the two served workloads.
type httpState struct {
	seed    int64
	threads int
	hs      *hosted
	bodies  [][]byte
	// Client-side outcomes of the last measurement, for the per-layer
	// client and generator metrics.
	open, all []outcome
}

func (st *httpState) matrices() []*matrix { return st.hs.mats }
func (st *httpState) close()              { st.hs.close() }

// mulMetrics fills the multiply end-to-end metrics from open-loop
// outcomes: latency quantiles over all answers, and per hosted format the
// client-seen GFLOP/s of its matrix.
func (st *httpState) mulMetrics(res *measurement, outs []outcome) {
	var lat []float64
	perKey := map[int][]float64{}
	for _, o := range outs {
		lat = append(lat, o.latency())
		perKey[o.op.key] = append(perKey[o.op.key], o.latency())
	}
	q := tail(lat, 99)
	res.e2e["mul_ms_p50"] = metric{median(lat) * 1e3, "ms", len(lat), "due to last byte"}
	res.extra["mul_ms_p99"] = metric{q.Value * 1e3, "ms", q.N, fmt.Sprintf("p%d, due to last byte", q.P)}
	for i, m := range st.hs.mats {
		l := perKey[i]
		res.e2e["spmv_gflops."+m.format] = metric{2 * float64(m.coo.Len()) / median(l) / 1e9, "GFLOP/s", len(l),
			"2*nnz / median latency of " + m.name}
	}
}

func (st *httpState) layers(tr *Tracer, roof *roofInfo) (metricSet, error) {
	snap := st.hs.h.srv.Snapshot()
	return sweep(&sweepIn{mats: st.hs.mats, mmBodies: st.bodies,
		snap: &snap, ids: st.hs.ids, all: st.all, open: st.open}, st.threads, tr, roof)
}

// ---- serve-json ----

type serveState struct{ httpState }

func newServe(seed int64, _ float64, threads int, tr *Tracer) (state, error) {
	root := tr.Begin("setup", 0, 0)
	defer tr.End(root)
	mats, bodies, err := generateHosted(rand.New(rand.NewSource(seed)), serveShapes, tr, root)
	if err != nil {
		return nil, err
	}
	hs, err := hostMatrices(server.Config{Threads: threads}, mats, bodies, tr, root)
	if err != nil {
		return nil, err
	}
	return &serveState{httpState{seed: seed, threads: threads, hs: hs, bodies: bodies}}, nil
}

// measure runs the fixed-rate open loop, then a closed loop at nproc
// connections for the saturation throughput.
func (st *serveState) measure(secs float64, tr *Tracer) (*measurement, error) {
	res := newMeasurement()
	rng := rand.New(rand.NewSource(st.seed ^ 0x5e57e))
	openD := time.Duration(serveOpenShare * secs * float64(time.Second))
	var ops []*op
	for _, due := range arrivals(rng, serveRate, int(serveRate*openD.Seconds())) {
		o := st.hs.randomOp(rng)
		o.due = due
		ops = append(ops, o)
	}
	open := openLoop(ops, st.threads, tr, 1)

	// The closed loop takes its requests from the same seeded stream, one
	// draw per request in the order they are sent.
	closed, elapsed := closedLoop(func() *op { return st.hs.randomOp(rng) },
		st.threads, time.Duration(secs*float64(time.Second))-openD, tr, 1+int64(len(ops)))

	okOpen := res.tally(open)
	served := len(res.tally(closed))
	st.mulMetrics(res, okOpen)
	res.extra["mul_rps_sat"] = metric{float64(served) / elapsed.Seconds(), "1/s", served,
		fmt.Sprintf("closed loop, %d connections", st.threads)}
	st.open, st.all = open, append(open, closed...)
	return res, nil
}

// ---- ingest-mixed ----

type ingestState struct {
	httpState
	uploads []*op // upload schedule for the longest measurement
}

func newIngest(seed int64, secs float64, threads int, tr *Tracer) (state, error) {
	root := tr.Begin("setup", 0, 0)
	defer tr.End(root)
	rng := rand.New(rand.NewSource(seed))

	// Upload bodies first: the memory budget is sized from them. Every
	// third upload resends the body before it, which is still resident,
	// so the server's build cache answers it on every seed. The others
	// are distinct matrices whose kind, size, body type and
	// requested format follow fixed cycles in a seeded order, so every seed
	// asks for the same ingest work.
	st := &ingestState{}
	due := arrivals(rng, ingestUploadRate, int(math.Ceil(ingestUploadRate*secs))+1)
	distinct := len(due) - len(due)/ingestRepeatEvery
	order := rng.Perm(distinct)
	kinds := []string{"femlike", "random-q200", "banded"}
	var maxUp int64
	for i, d := range due {
		if i%ingestRepeatEvery == ingestRepeatEvery-1 {
			prev := *st.uploads[i-1]
			prev.due = d
			st.uploads = append(st.uploads, &prev)
			continue
		}
		j := order[0]
		order = order[1:]
		s := shape{name: fmt.Sprintf("upload-%d", j), kind: kinds[j%len(kinds)],
			rows: 20000 + 20000*j/max(distinct-1, 1)}
		sp := tr.Begin("matgen/upload", root, 0)
		m, err := makeMatrix(rng, s, 0)
		tr.End(sp)
		if err != nil {
			return nil, err
		}
		format := "csr-du"
		if j%2 == 1 {
			format = "auto"
		}
		var body []byte
		ct := "text/plain"
		if j%5 < 2 { // 40% matfile containers
			f, err := formats.Build("csr-du", m.coo)
			if err != nil {
				return nil, err
			}
			var b bytes.Buffer
			if err := matfile.Write(&b, f); err != nil {
				return nil, err
			}
			body, ct = b.Bytes(), "application/octet-stream"
		} else if body, err = mmBody(m); err != nil {
			return nil, err
		}
		maxUp = max(maxUp, csrBytes(m))
		st.uploads = append(st.uploads, &op{due: d, url: "/matrices?format=" + format, ct: ct, body: body,
			check: func(status int, b []byte) error { _, err := checkUpload(status, b, m); return err }})
	}

	mats, bodies, err := generateHosted(rand.New(rand.NewSource(seed+1)), residentShapes, tr, root)
	if err != nil {
		return nil, err
	}
	var resident int64
	for _, m := range mats {
		resident += csrBytes(m)
	}
	// The resident set plus room for the largest upload, all counted as
	// CSR: the server counts the smaller compressed builds, so two or three
	// uploads fit. Later ones evict earlier ones by LRU, even in the few
	// seconds of a traced half, while the continuously read resident
	// matrices stay.
	cfg := server.Config{Threads: threads, MemoryBudget: resident + maxUp}
	hs, err := hostMatrices(cfg, mats, bodies, tr, root)
	if err != nil {
		return nil, err
	}
	st.httpState = httpState{seed: seed, threads: threads, hs: hs, bodies: bodies}
	return st, nil
}

// measure runs open-loop uploads and open-loop multiplies side by side, one
// connection each.
func (st *ingestState) measure(secs float64, tr *Tracer) (*measurement, error) {
	res := newMeasurement()
	d := time.Duration(secs * float64(time.Second))
	rng := rand.New(rand.NewSource(st.seed ^ 0x1a9e57))
	var reads []*op
	for _, due := range arrivals(rng, ingestReadRate, int(ingestReadRate*secs)) {
		o := st.hs.randomOp(rng)
		o.due = due
		reads = append(reads, o)
	}
	var ups []*op
	for _, u := range st.uploads {
		if u.due < d {
			o := *u
			o.url = st.hs.h.base + u.url
			ups = append(ups, &o)
		}
	}
	var upOut []outcome
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		upOut = openLoop(ups, 1, tr, 1<<40)
	}()
	readOut := openLoop(reads, 1, tr, 1)
	wg.Wait()

	okReads := res.tally(readOut)
	var upLat []float64
	for _, o := range res.tally(upOut) {
		upLat = append(upLat, o.latency())
	}
	st.mulMetrics(res, okReads)
	q := tail(upLat, 90)
	res.extra["upload_ms_p50"] = metric{median(upLat) * 1e3, "ms", len(upLat), "due to last byte"}
	res.extra["upload_ms_p90"] = metric{q.Value * 1e3, "ms", q.N, fmt.Sprintf("p%d", q.P)}
	snap := st.hs.h.srv.Snapshot()
	res.extra["evictions"] = metric{float64(snap.Evictions), "count", 1, "server LRU evictions so far"}
	st.open, st.all = readOut, append(readOut, upOut...)
	return res, nil
}

func (st *ingestState) layers(tr *Tracer, roof *roofInfo) (metricSet, error) {
	snap := st.hs.h.srv.Snapshot()
	var mm, mf [][]byte
	for _, u := range st.uploads {
		if bytes.HasPrefix(u.body, []byte("%%MatrixMarket")) {
			mm = append(mm, u.body)
		} else {
			mf = append(mf, u.body)
		}
	}
	return sweep(&sweepIn{mats: st.hs.mats, mmBodies: mm, containers: mf,
		snap: &snap, ids: st.hs.ids, all: st.all, open: st.open}, st.threads, tr, roof)
}
