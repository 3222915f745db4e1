package main

import (
	"fmt"
	"math"
)

// DefaultSeed is the workload seed the pinned references below were
// recorded with. HeldOutSeed is never used while tuning the benchmark or
// a change: claims are re-checked on it.
const (
	DefaultSeed = 1
	HeldOutSeed = 7
)

// pin is a workload's reference outcome at DefaultSeed and full scale,
// recorded from the serial fold. MeanBits is the exact float64 bit
// pattern of the mean CPI; a capture error count of zero is implied.
type pin struct {
	N              int
	MeanBits       uint64
	UnknownFetches uint64
	UnknownLoads   uint64
}

// pins holds the simulated statistics every later commit must reproduce
// bit for bit: a change that only speeds up the simulator may not move
// them.
var pins = map[string]pin{
	"gzip16-serial": {N: 62, MeanBits: 0x3fe1151317b797e1, UnknownFetches: 0, UnknownLoads: 1198},
	"mcf8-parallel": {N: 32, MeanBits: 0x40487a10624dd2f3, UnknownFetches: 0, UnknownLoads: 3},
	"gcc8-cluster":  {N: 123, MeanBits: 0x3fe4d0cbcd0cbcd0, UnknownFetches: 0, UnknownLoads: 8355},
}

// gate is the correctness check. Every check either passes or adds one
// failure; failures count toward the error rate and make the command
// exit non-zero.
type gate struct {
	failed   int
	messages []string
}

func (g *gate) fail(format string, args ...any) {
	g.failed++
	g.messages = append(g.messages, fmt.Sprintf(format, args...))
}

// checkPin compares the serial reference fold against the pinned
// outcome for the workload.
func (g *gate) checkPin(name string, p pin, ref outcome) {
	got := pin{N: ref.N, MeanBits: math.Float64bits(ref.Mean), UnknownFetches: ref.UnknownFetches, UnknownLoads: ref.UnknownLoads}
	if got != p {
		g.fail("%s: reference fold %+v (mean %v) != pinned %+v (mean %v)",
			name, got, ref.Mean, p, math.Float64frombits(p.MeanBits))
	}
}

// checkClean requires a capture-error-free outcome: a correct-path
// unknown event means the live-point lost state it needed.
func (g *gate) checkClean(what string, o outcome) {
	if o.CaptureErrors != 0 {
		g.fail("%s: %d capture errors", what, o.CaptureErrors)
	}
}

// checkPass scores one whole-library pass over a library of points
// points. A pass that errored fails all of them; otherwise every point
// not folded fails and the outcome is compared with the serial fold. It
// reports whether the pass produced an outcome.
func (g *gate) checkPass(what, mode string, points int, got outcome, err error, ref outcome) bool {
	if err != nil {
		g.fail("%s: %v", what, err)
		g.failed += points - 1
		return false
	}
	if missing := points - got.N; missing > 0 {
		g.failed += missing
	}
	g.checkMatch(what, mode, got, ref)
	return true
}

// parallelRelTol bounds the mean's drift on the parallel path, which
// folds in completion order.
const parallelRelTol = 1e-12

// checkMatch compares one path's outcome against the serial fold of the
// same library. Serial and cluster folds are in read order and must be
// bit-equal; the parallel fold must agree exactly on counts and within
// parallelRelTol on the mean.
func (g *gate) checkMatch(what, mode string, got, ref outcome) {
	g.checkClean(what, got)
	if got.N != ref.N || got.UnknownFetches != ref.UnknownFetches || got.UnknownLoads != ref.UnknownLoads {
		g.fail("%s: counts %+v differ from serial fold %+v", what, got, ref)
		return
	}
	if mode == modeParallel {
		if rel := math.Abs(got.Mean-ref.Mean) / math.Abs(ref.Mean); !(rel <= parallelRelTol) {
			g.fail("%s: mean %v differs from serial %v by %.3g relative", what, got.Mean, ref.Mean, rel)
		}
		return
	}
	if math.Float64bits(got.Mean) != math.Float64bits(ref.Mean) {
		g.fail("%s: mean %v not bit-equal to serial %v", what, got.Mean, ref.Mean)
	}
}
