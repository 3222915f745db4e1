package livepoint

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// RunOpts configures a sampling experiment over a live-point library.
type RunOpts struct {
	Cfg uarch.Config

	// Z and RelErr define the stopping rule: the run terminates as soon
	// as the estimate reaches ±RelErr at confidence z (never before
	// sampling.MinSampleSize points). RelErr <= 0 processes the whole
	// library.
	Z      float64
	RelErr float64

	// MaxPoints, when positive, bounds the number of points processed.
	MaxPoints int

	// Parallel is the number of simulation workers; values < 2 run
	// serially (deterministic processing order).
	Parallel int

	// RecordHistory retains per-point snapshots for convergence plots.
	RecordHistory bool
}

// RunResult is the outcome of a live-point sampling experiment.
type RunResult struct {
	Est       sampling.Estimate
	History   []sampling.Snapshot
	Processed int

	LoadTime time.Duration // decompression + decode + reconstruction I/O
	SimTime  time.Duration // detailed simulation

	// Aggregated wrong-path approximation counters (§5).
	UnknownFetches uint64
	UnknownLoads   uint64
	CaptureErrors  uint64 // correct-path unknown events: must be zero
}

// Satisfied reports whether the stopping rule was met (as opposed to
// exhausting the library).
func (r *RunResult) Satisfied(z, relErr float64) bool {
	return relErr > 0 && r.Est.Satisfied(z, relErr)
}

func (r *RunResult) fold(wr warm.WindowResult, online *sampling.OnlineEstimator) bool {
	r.Processed++
	r.UnknownFetches += wr.Stats.UnknownFetches
	r.UnknownLoads += wr.Stats.UnknownLoads
	r.CaptureErrors += wr.Stats.CorrectPathUnknownLoads + wr.Stats.CorrectPathUnknownFetches
	return online.Add(wr.UnitCPI)
}

// errUnshuffled refuses early stopping on a library stored in program
// order: only a prefix of a shuffled library is an unbiased sample (§6.1).
var errUnshuffled = errors.New("livepoint: early stopping requires a shuffled library (create it shuffled, or reshuffle a v2 store with lpstore.Shuffle)")

// RunFile runs a sampling experiment over a library file, auto-detecting
// the format (sequential v1 stream or sharded v2 store). Points are
// processed in read order; on a shuffled library this realizes the paper's
// random-order online estimation (§6.1), so the run may stop at any point
// with a statistically valid estimate.
func RunFile(path string, opts RunOpts) (*RunResult, error) {
	src, err := OpenSource(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return RunSource(src, opts)
}

// RunSource runs a sampling experiment over any live-point source: a local
// file, a sharded store, or a remote serving client. Whole-library
// parallel runs pull from independent shards when the source exposes
// them; truncated runs (a stopping rule or point cap) stay on the
// read-order stream, because draining whole shards processes physically
// consecutive points together — on an index-reshuffled store those are
// correlated, and stopping early on such a prefix would bias the
// estimate.
func RunSource(src Source, opts RunOpts) (*RunResult, error) {
	if opts.Z == 0 {
		opts.Z = sampling.Z997
	}
	if opts.RelErr > 0 && !src.Meta().Shuffled {
		return nil, errUnshuffled
	}
	res := &RunResult{}
	online := sampling.NewOnline(opts.Z, opts.RelErr, opts.RecordHistory)
	wholeLibrary := opts.RelErr <= 0 && opts.MaxPoints <= 0
	var err error
	res.LoadTime, res.SimTime, err = pipeline(src, kernel{base: opts.Cfg}, opts.Parallel, opts.MaxPoints, wholeLibrary,
		func(p simulated) bool { return res.fold(p.base, online) && opts.RelErr > 0 })
	if err != nil {
		return nil, err
	}
	res.Est = *online.Estimate()
	res.History = online.History()
	return res, nil
}

// SimBlobs simulates each encoded live-point under base and returns the
// per-point CPIs in input order, plus a RunResult aggregating timings and
// the base configuration's wrong-path counters. When exp is non-nil every
// point is also simulated under *exp (a matched pair, §6.2) and expCPIs
// holds the paired CPIs; otherwise expCPIs is nil. This is the
// worker-side kernel of a cluster lease: a remote worker fetches a lease's
// blobs, runs SimBlobs, and posts the CPIs back to the coordinator for
// folding.
func SimBlobs(blobs [][]byte, base uarch.Config, exp *uarch.Config) (baseCPIs, expCPIs []float64, res *RunResult, err error) {
	res = &RunResult{}
	online := sampling.NewOnline(sampling.Z997, 0, false)
	baseCPIs = make([]float64, 0, len(blobs))
	if exp != nil {
		expCPIs = make([]float64, 0, len(blobs))
	}
	res.LoadTime, res.SimTime, err = pipeline(NewBlobSource(Meta{}, blobs), kernel{base: base, exp: exp}, 1, 0, true,
		func(p simulated) bool {
			res.fold(p.base, online)
			baseCPIs = append(baseCPIs, p.base.UnitCPI)
			if exp != nil {
				expCPIs = append(expCPIs, p.exp.UnitCPI)
			}
			return false
		})
	if err != nil {
		return nil, nil, nil, err
	}
	res.Est = *online.Estimate()
	return baseCPIs, expCPIs, res, nil
}

// MatchedOpts configures a matched-pair comparative experiment (§6.2).
type MatchedOpts struct {
	Base uarch.Config
	Exp  uarch.Config

	Z      float64
	RelErr float64 // target half-width on the delta, relative to baseline

	// NoImpactThreshold, when positive, additionally stops once the delta
	// is confidently within ±threshold of zero (the rapid design-space
	// screen).
	NoImpactThreshold float64

	MaxPoints int
}

// MatchedResult is the outcome of a matched-pair experiment.
type MatchedResult struct {
	MP        sampling.MatchedPair
	Processed int
	LoadTime  time.Duration // stream reads + decode, as in RunResult
	SimTime   time.Duration // detailed simulation (both configurations)
	// StoppedNoImpact records that the no-impact screen fired.
	StoppedNoImpact bool
}

// RunMatchedFile measures the same live-points under two configurations and
// builds a confidence interval directly on the per-unit CPI delta. Both
// configurations must be reconstructible from the library's stored bounds.
// The format is auto-detected, as in RunFile.
func RunMatchedFile(path string, opts MatchedOpts) (*MatchedResult, error) {
	src, err := OpenSource(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return RunMatchedSource(src, opts)
}

// RunMatchedSource is RunMatchedFile over any live-point source. Points
// are processed serially in read order.
func RunMatchedSource(src Source, opts MatchedOpts) (*MatchedResult, error) {
	if opts.RelErr > 0 && !src.Meta().Shuffled {
		return nil, errUnshuffled
	}
	res := &MatchedResult{}
	var err error
	res.LoadTime, res.SimTime, err = pipeline(src, kernel{base: opts.Base, exp: &opts.Exp}, 1, opts.MaxPoints, false,
		func(p simulated) bool {
			res.MP.Add(p.base.UnitCPI, p.exp.UnitCPI)
			res.Processed++
			// The no-impact screen is checked first: a delta confidently
			// within ±threshold is the §6.2 fast exit, even when the
			// interval is also narrow enough to satisfy the precision
			// target.
			if opts.NoImpactThreshold > 0 && res.MP.NoImpact(opts.Z, opts.NoImpactThreshold) {
				res.StoppedNoImpact = true
				return true
			}
			return opts.RelErr > 0 && res.MP.DeltaSatisfied(opts.Z, opts.RelErr)
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// kernel simulates one decoded point: under base, or, when exp is set,
// under the matched pair (base, *exp).
type kernel struct {
	base uarch.Config
	exp  *uarch.Config
}

// simulated is one point's outcome under a kernel.
type simulated struct {
	base, exp warm.WindowResult
	err       error
}

// simulator is one worker's kernel state: an arena per configuration, so
// a matched pair never reconfigures one arena between two geometries on
// every point.
type simulator struct {
	kernel
	baseArena, expArena SimArena
}

func (s *simulator) run(lp *LivePoint) simulated {
	var p simulated
	if p.base, p.err = s.baseArena.Simulate(lp, s.base); p.err != nil {
		if s.exp == nil {
			p.err = fmt.Errorf("livepoint: point %d: %w", lp.Index, p.err)
		} else {
			p.err = fmt.Errorf("livepoint: base config, point %d: %w", lp.Index, p.err)
		}
		return p
	}
	if s.exp != nil {
		if p.exp, p.err = s.expArena.Simulate(lp, *s.exp); p.err != nil {
			p.err = fmt.Errorf("livepoint: experimental config, point %d: %w", lp.Index, p.err)
		}
	}
	return p
}

// collector folds simulated points and owns fail-fast. The first error,
// or the first fold that reports the stopping rule met, calls halt once;
// points simulated before the streams notice are still folded, in
// completion order. err is the first error seen.
type collector struct {
	fold   func(simulated) bool
	halt   func()
	halted bool
	err    error
}

func (c *collector) add(p simulated) {
	if p.err != nil {
		if c.err == nil {
			c.err = p.err
		}
		c.stop()
		return
	}
	if c.fold(p) {
		c.stop()
	}
}

func (c *collector) stop() {
	if !c.halted {
		c.halted = true
		c.halt()
	}
}

// stream reads src in order and decodes each blob into point() before the
// next read — NextBlob's buffer is only valid until then, so no blob is
// ever copied — handing each decoded point to emit. It stops when src is
// drained, after maxPoints reads (maxPoints <= 0: no cap), or when emit
// returns false. Reads, decodes and shard opens accrue to loadNS.
func stream(src Source, maxPoints int, loadNS *atomic.Int64, point func() *LivePoint, emit func(*LivePoint) bool) error {
	for n := 0; maxPoints <= 0 || n < maxPoints; n++ {
		t0 := time.Now()
		blob, err := src.NextBlob()
		if err != nil {
			loadNS.Add(int64(time.Since(t0)))
			if err == io.EOF {
				return nil
			}
			return err
		}
		lp := point()
		err = DecodeInto(lp, blob)
		mDecodedBytes.Add(uint64(len(blob)))
		loadNS.Add(int64(time.Since(t0)))
		if err != nil {
			return err
		}
		if !emit(lp) {
			return nil
		}
	}
	return nil
}

// pipeline is the one run loop behind every entry point: read → decode →
// simulate → fold. It returns the summed load (reads, decode) and sim
// (detailed simulation) times and the first error.
//
// parallel < 2 runs one stream on the caller's goroutine and simulates
// each point inline, in read order, so the estimate is deterministic.
// Otherwise streams feed parallel simulation workers through a bounded
// decode-ahead channel and points fold in completion order, which is
// still an unbiased sample of a shuffled library (§6). Whole-library runs
// over a ShardedSource get one stream per shard, at most parallel at a
// time, so decompression scales with the workers; every other parallel
// run has the single read-order stream, because a shard-major prefix of
// physically consecutive points is not an unbiased sample.
func pipeline(src Source, k kernel, parallel, maxPoints int, wholeLibrary bool, fold func(simulated) bool) (load, sim time.Duration, err error) {
	var loadNS, simNS atomic.Int64
	simulate := func(s *simulator, lp *LivePoint) simulated {
		t0 := time.Now()
		p := s.run(lp)
		simNS.Add(int64(time.Since(t0)))
		return p
	}

	if parallel < 2 {
		// One point, decoded into and simulated in turn.
		lp := acquireLivePoint()
		defer releaseLivePoint(lp)
		s := &simulator{kernel: k}
		c := collector{fold: fold, halt: func() {}}
		err = stream(src, maxPoints, &loadNS, func() *LivePoint { return lp }, func(lp *LivePoint) bool {
			c.add(simulate(s, lp))
			return !c.halted
		})
		if c.err != nil {
			err = c.err
		}
		return time.Duration(loadNS.Load()), time.Duration(simNS.Load()), err
	}

	done := make(chan struct{})
	halted := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	lpc := make(chan *LivePoint, 2*parallel)
	outs := make(chan simulated, parallel)
	// Each decoded point is a pooled LivePoint owned by the channel until
	// a sim worker releases it.
	emit := func(lp *LivePoint) bool {
		if halted() {
			return false
		}
		select {
		case lpc <- lp:
			mDecodeAheadDepth.Set(float64(len(lpc)))
			return true
		case <-done:
			return false
		}
	}

	var streams sync.WaitGroup
	ss, sharded := src.(ShardedSource)
	if sharded && wholeLibrary && ss.NumShards() > 1 {
		var next atomic.Int64
		for w := 0; w < min(parallel, ss.NumShards()); w++ {
			streams.Add(1)
			go func() {
				defer streams.Done()
				for s := int(next.Add(1) - 1); s < ss.NumShards() && !halted(); s = int(next.Add(1) - 1) {
					t0 := time.Now()
					sub, err := ss.OpenShard(s)
					loadNS.Add(int64(time.Since(t0)))
					if err == nil {
						err = stream(sub, 0, &loadNS, acquireLivePoint, emit)
						sub.Close()
					}
					if err != nil {
						outs <- simulated{err: err}
						return
					}
				}
			}()
		}
	} else {
		streams.Add(1)
		go func() {
			defer streams.Done()
			if err := stream(src, maxPoints, &loadNS, acquireLivePoint, emit); err != nil {
				outs <- simulated{err: err}
			}
		}()
	}

	var sims sync.WaitGroup
	for w := 0; w < parallel; w++ {
		sims.Add(1)
		go func() {
			defer sims.Done()
			s := &simulator{kernel: k}
			for lp := range lpc {
				p := simulate(s, lp)
				releaseLivePoint(lp)
				outs <- p
			}
		}()
	}
	go func() {
		streams.Wait()
		close(lpc)
		sims.Wait()
		close(outs)
	}()

	c := collector{fold: fold, halt: func() { close(done) }}
	for p := range outs {
		c.add(p)
	}
	return time.Duration(loadNS.Load()), time.Duration(simNS.Load()), c.err
}
