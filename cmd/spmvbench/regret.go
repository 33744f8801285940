package main

import (
	"fmt"
	"sort"
	"time"

	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/parallel"
)

// regretBaselines are the formats a tuner pick is measured against: the
// paper's CSR baseline and its two compressed formats.
var regretBaselines = []string{"csr", "csr-du", "csr-vi"}

// autoRegret is the measured check of one tuner pick: the median Run
// time of the pick ("auto") and of each baseline at the tuned thread
// count, and the pick's regret, its median over the fastest
// baseline's. A regret above 1 means the tuner chose something slower
// than a format it could have built.
type autoRegret struct {
	Threads  int                `json:"threads"`
	Rounds   int                `json:"rounds"`
	MedianMS map[string]float64 `json:"median_ms"`
	Fastest  string             `json:"fastest"`
	Regret   float64            `json:"regret"`
}

// measureRegret runs the pick and the baselines in rotation, one Run
// each per round, so a slow spell on the host hits them alike.
func measureRegret(c *core.COO, pick core.Format, partition string, steal bool, threads, rounds int) (*autoRegret, error) {
	names := append([]string{"auto"}, regretBaselines...)
	runners := make([]parallel.Runner, 0, len(names))
	defer func() {
		for _, r := range runners {
			r.Close()
		}
	}()
	for _, name := range names {
		f, opts := pick, parallel.ExecOptions{Threads: threads}
		if name == "auto" {
			opts.Partition, opts.Steal = partition, steal
		} else {
			var err error
			if f, err = formats.Build(name, c); err != nil {
				return nil, fmt.Errorf("regret: build %s: %w", name, err)
			}
		}
		r, err := parallel.New(f, opts)
		if err != nil {
			return nil, fmt.Errorf("regret: executor %s: %w", name, err)
		}
		runners = append(runners, r)
	}
	x := make([]float64, c.Cols())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y := make([]float64, c.Rows())
	times := make([][]float64, len(names))
	for round := -1; round < rounds; round++ {
		for i, r := range runners {
			t0 := time.Now()
			if err := r.Run(y, x); err != nil {
				return nil, fmt.Errorf("regret: run %s: %w", names[i], err)
			}
			if round >= 0 { // round -1 warms the caches and workers
				times[i] = append(times[i], time.Since(t0).Seconds())
			}
		}
	}
	out := &autoRegret{Threads: threads, Rounds: rounds, MedianMS: map[string]float64{}}
	best := 0.0
	for i, name := range names {
		sort.Float64s(times[i])
		med := times[i][len(times[i])/2]
		out.MedianMS[name] = med * 1e3
		if i > 0 && (out.Fastest == "" || med < best) {
			out.Fastest, best = name, med
		}
	}
	out.Regret = out.MedianMS["auto"] / out.MedianMS[out.Fastest]
	return out, nil
}
