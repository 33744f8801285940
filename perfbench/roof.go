package main

import (
	"fmt"
	"runtime"

	"spmv/internal/roofline"
)

// roofInfo is the triad bandwidth probed in this run: at 1 and at all
// threads with arrays far past the LLC (the denominator of %roof), and
// with a 24 MiB working set for comparison.
type roofInfo struct {
	triad1, triadN           float64
	smallTriad1, smallTriadN float64
	samples                  int
	note                     string
}

const roofSamples = 3

func probeRoof() (*roofInfo, error) {
	_, llc := cacheSizes()
	if llc == 0 {
		llc = 32 << 20
	}
	// Three arrays of 8-byte elements; the working set is at least four
	// times the LLC.
	big := int(4 * llc / 24)
	small := 24 << 20 / 24
	r := &roofInfo{samples: roofSamples}
	var err error
	if r.smallTriad1, r.smallTriadN, err = triad(small); err != nil {
		return nil, err
	}
	if r.triad1, r.triadN, err = triad(big); err != nil {
		return nil, err
	}
	r.note = fmt.Sprintf("roofline.Probe triad, %s working set", mib(int64(big)*24))
	return r, nil
}

func triad(n int) (t1, tN float64, err error) {
	f, err := roofline.Probe(roofline.ProbeOptions{ArrayLen: n, Samples: roofSamples})
	if err != nil {
		return 0, 0, fmt.Errorf("roofline probe: %w", err)
	}
	maxT := 0
	for _, res := range f.Results {
		if res.Kernel != roofline.KernelTriad {
			continue
		}
		if res.Threads == 1 {
			t1 = res.MeanGBps
		}
		if res.Threads > maxT {
			maxT, tN = res.Threads, res.MeanGBps
		}
	}
	runtime.GC()
	return t1, tN, nil
}

func printRoof(r *roofInfo) {
	fmt.Printf("roof triad 24.0MiB: t1=%.2f GB/s tN=%.2f GB/s; %s: t1=%.2f GB/s tN=%.2f GB/s\n",
		r.smallTriad1, r.smallTriadN, r.note, r.triad1, r.triadN)
}
