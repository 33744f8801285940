package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"spmv/internal/server"
)

// host is an in-process server.New behind a loopback listener.
type host struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

func startHost(cfg server.Config) (*host, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &host{srv: server.New(cfg), base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	h.hs = &http.Server{Handler: h.srv}
	go func() { h.done <- h.hs.Serve(ln) }()
	return h, nil
}

// close stops the listener, waits for the serve loop to return and stops
// the server's pipeline goroutines.
func (h *host) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // a timeout only means connections were cut
	<-h.done
	h.srv.Close()
}

// newClient returns an HTTP client that keeps at most conns connections open.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// post sends one POST and reads the whole answer into buf, whose bytes it
// returns; they are valid until buf is used again. Reusing one buffer per
// connection keeps the client from adding garbage the server's collector
// would have to chase.
func post(ctx context.Context, c *http.Client, url, contentType string, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

// upload posts a matrix body and checks the answer describes it.
func upload(c *http.Client, base string, body []byte, format string, m *matrix) (server.UploadResponse, error) {
	url := base + "/matrices"
	if format != "" {
		url += "?format=" + format
	}
	status, b, err := post(context.Background(), c, url, "text/plain", body, new(bytes.Buffer))
	if err != nil {
		return server.UploadResponse{}, err
	}
	return checkUpload(status, b, m)
}

func checkUpload(status int, b []byte, m *matrix) (server.UploadResponse, error) {
	var u server.UploadResponse
	if status != http.StatusOK && status != http.StatusCreated {
		return u, fmt.Errorf("upload %s: status %d: %s", m.name, status, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, &u); err != nil {
		return u, fmt.Errorf("upload %s: %w", m.name, err)
	}
	if u.Rows != m.coo.Rows() || u.Cols != m.coo.Cols() || u.NNZ != m.coo.Len() {
		return u, fmt.Errorf("upload %s: server reports %dx%d/%d, sent %dx%d/%d", m.name,
			u.Rows, u.Cols, u.NNZ, m.coo.Rows(), m.coo.Cols(), m.coo.Len())
	}
	return u, nil
}

// op is one request of a load schedule.
type op struct {
	due  time.Duration // offset from the phase start; 0 in a closed loop
	url  string
	ct   string
	body []byte
	// check verifies the answer; any error counts the request as failed.
	check func(status int, body []byte) error
	key   int // the hosted matrix the request is about
}

// outcome is what happened to one op. Latency runs from due (open loop)
// or sent (closed loop) to the last response byte.
type outcome struct {
	op              *op
	due, sent, done time.Duration
	err             error
}

func (o outcome) latency() float64   { return (o.done - o.due).Seconds() }
func (o outcome) lag() float64       { return (o.sent - o.due).Seconds() }
func (o outcome) roundTrip() float64 { return (o.done - o.sent).Seconds() }

// send performs one op and records its outcome; the span covers the
// client round trip.
func send(c *http.Client, o *op, start time.Time, tr *Tracer, req int64, buf *bytes.Buffer) outcome {
	out := outcome{op: o, due: o.due, sent: time.Since(start)}
	sp := tr.Begin("http.POST", 0, req)
	status, b, err := post(context.Background(), c, o.url, o.ct, o.body, buf)
	out.done = time.Since(start)
	tr.End(sp)
	if err == nil {
		vs := tr.Begin("verify", sp, req)
		err = o.check(status, b)
		tr.End(vs)
	}
	out.err = err
	return out
}

// openLoop sends ops at their due times over at most conns connections. A
// request waits for a free connection after it is due; that wait is charged
// to its latency and shows as generator lag. ops must be sorted by due.
func openLoop(ops []*op, conns int, tr *Tracer, reqBase int64) []outcome {
	c := newClient(conns)
	defer closeClient(c)
	out := make([]outcome, len(ops))
	queue := make(chan int, len(ops)) // holds every op, so the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range queue {
				out[i] = send(c, ops[i], start, tr, reqBase+int64(i), &buf)
			}
		}()
	}
	for i, o := range ops {
		if d := o.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop keeps conns callers busy for d: each sends its next op as soon
// as the previous one is answered. Calls to next are serialized, so a
// seeded next yields the same sequence of ops on every run.
func closedLoop(next func() *op, conns int, d time.Duration, tr *Tracer, reqBase int64) ([]outcome, time.Duration) {
	c := newClient(conns)
	defer closeClient(c)
	var mu sync.Mutex
	var out []outcome
	issued := 0
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Since(start) < d {
				mu.Lock()
				i := issued
				o := *next()
				issued++
				mu.Unlock()
				o.due = time.Since(start)
				res := send(c, &o, start, tr, reqBase+int64(i), &buf)
				mu.Lock()
				out = append(out, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// arrivals returns n due times at rate per second, one at a seeded uniform
// point of each 1/rate interval: no long gaps or bursts that would make
// short runs differ.
func arrivals(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		t := (float64(i) + rng.Float64()) / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// verifier checks multiply answers. Bodies verified by a full decode at set-up
// are kept per (matrix, x); a seeded sample of later answers is decoded and
// compared again, the rest must equal the verified body byte for byte.
type verifier struct {
	mats   []*matrix
	bodies map[[2]int][]byte
}

var errWrongAnswer = errors.New("answer differs from the verified body")

func (v *verifier) statusErr(mi, status int, b []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("multiply %s: status %d: %s", v.mats[mi].name, status, bytes.TrimSpace(b))
	}
	return nil
}

func (v *verifier) decodeCheck(mi, xi int, status int, b []byte) error {
	if err := v.statusErr(mi, status, b); err != nil {
		return err
	}
	var resp server.MultiplyResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return fmt.Errorf("multiply %s: %w", v.mats[mi].name, err)
	}
	if err := checkProduct(resp.Y, v.mats[mi].refs[xi]); err != nil {
		return fmt.Errorf("multiply %s: %w", v.mats[mi].name, err)
	}
	return nil
}

// checker returns the check for a multiply of matrix mi by x number xi.
func (v *verifier) checker(mi, xi int, full bool) func(int, []byte) error {
	return func(status int, b []byte) error {
		if full {
			return v.decodeCheck(mi, xi, status, b)
		}
		if err := v.statusErr(mi, status, b); err != nil {
			return err
		}
		if !bytes.Equal(b, v.bodies[[2]int{mi, xi}]) {
			return fmt.Errorf("multiply %s x%d: %w", v.mats[mi].name, xi, errWrongAnswer)
		}
		return nil
	}
}

// multiplyBody is the wire body for x, encoded with the server's own type.
func multiplyBody(x []float64) ([]byte, error) {
	return json.Marshal(server.MultiplyRequest{X: x})
}

// hosted is a set of matrices uploaded to one server, with the request
// bodies for every (matrix, x) and the verified answers.
type hosted struct {
	h      *host
	mats   []*matrix
	ids    []string
	reqs   [][][]byte // [matrix][x] request body
	verify *verifier
}

// hostMatrices starts a server, uploads mats (mats[i] as bodies[i], with its
// hosted format) and verifies one answer per (matrix, x) by a full decode.
func hostMatrices(cfg server.Config, mats []*matrix, bodies [][]byte, tr *Tracer, parent int) (*hosted, error) {
	h, err := startHost(cfg)
	if err != nil {
		return nil, err
	}
	hs := &hosted{h: h, mats: mats, verify: &verifier{mats: mats, bodies: map[[2]int][]byte{}}}
	c := newClient(1)
	defer closeClient(c)
	for i, m := range mats {
		sp := tr.Begin("upload/"+m.format, parent, 0)
		u, err := upload(c, h.base, bodies[i], m.format, m)
		tr.End(sp)
		if err != nil {
			hs.close()
			return nil, err
		}
		hs.ids = append(hs.ids, u.ID)
		var rb [][]byte
		for xi, x := range m.xs {
			b, err := multiplyBody(x)
			if err != nil {
				hs.close()
				return nil, err
			}
			rb = append(rb, b)
			status, ans, err := post(context.Background(), c, hs.url(i), "application/json", b, new(bytes.Buffer))
			if err == nil {
				err = hs.verify.decodeCheck(i, xi, status, ans)
			}
			if err != nil {
				hs.close()
				return nil, fmt.Errorf("verifying %s: %w", m.name, err)
			}
			hs.verify.bodies[[2]int{i, xi}] = ans
		}
		hs.reqs = append(hs.reqs, rb)
	}
	return hs, nil
}

func (hs *hosted) url(i int) string { return hs.h.base + "/matrices/" + hs.ids[i] + "/multiply" }

// multiplyOp is a request for matrix mi times x number xi; full asks for
// a full decode of the answer instead of a byte comparison.
func (hs *hosted) multiplyOp(mi, xi int, full bool) *op {
	return &op{url: hs.url(mi), ct: "application/json", body: hs.reqs[mi][xi],
		check: hs.verify.checker(mi, xi, full), key: mi}
}

// randomOp draws a multiply by seed: matrix, x, and whether the answer is
// one of the fully decoded sample.
func (hs *hosted) randomOp(rng *rand.Rand) *op {
	mi := rng.Intn(len(hs.mats))
	xi := rng.Intn(len(hs.mats[mi].xs))
	return hs.multiplyOp(mi, xi, rng.Float64() < fullCheckShare)
}

// fullCheckShare is the seeded share of answers decoded and compared with
// the reference in full; the rest are compared byte for byte.
const fullCheckShare = 0.05

func (hs *hosted) close() { hs.h.close() }
