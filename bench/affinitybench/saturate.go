package main

import (
	"fmt"
	"io"
	"time"
)

// saturationLimit is the p99 latency the saturation search holds each
// rate to: 100 ms, under which a user perceives a reply as immediate
// (J. Nielsen, Usability Engineering, 1993, section 5.5).
const saturationLimit = 100 * time.Millisecond

// saturationFrom is the search's first rate, in requests per second.
const saturationFrom = 100.0

// runSaturate measures an open-loop workload's saturation rate on this
// host. It runs the workload, with one set-up and a window of the given
// length, at rates rising by a quarter from saturationFrom, and prints
// each step. It stops at the first step whose p99 exceeds saturationLimit
// or whose requests failed (a request open longer than a second fails);
// a backlog that grows through a window of several seconds pushes p99
// past the limit. The saturation rate is the last step that passed.
func runSaturate(name string, seed uint64, seconds float64, workDir string, w io.Writer) error {
	in, err := generate(name, seed, defaultSizing(seconds))
	if err != nil {
		return err
	}
	if !in.openLoop {
		return fmt.Errorf("%s is a closed loop; -saturate needs warm-hit or disk-restart", name)
	}
	best := 0.0
	for rate := saturationFrom; ; rate *= 1.25 {
		sz := defaultSizing(seconds)
		sz.rate, sz.setups = rate, 1
		r, done, err := newRun(name, seed, sz, workDir, io.Discard)
		if err != nil {
			return err
		}
		win, err := r.e2e()
		done()
		if err != nil {
			return err
		}
		lat, _, _ := latencies(r.in.timed, win)
		p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
		ok := r.res.Failed == 0 && p99 <= ms(saturationLimit)
		fmt.Fprintf(w, "%s %.0f req/s: p50 %.3f ms, p99 %.3f ms, %d of %d failed, within limit %v\n",
			name, rate, p50, p99, r.res.Failed, r.res.Attempted, ok)
		if !ok {
			break
		}
		best = rate
	}
	fmt.Fprintf(w, "%s saturation: %.0f req/s (p99 within %v, no failures, %g s windows, seed %d)\n",
		name, best, saturationLimit, seconds, seed)
	return nil
}
