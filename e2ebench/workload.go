package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"livepoints/internal/bpred"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpcluster"
	"livepoints/internal/lpserve"
	"livepoints/internal/lpstore"
	"livepoints/internal/obs"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// How a workload folds its library.
const (
	modeSerial   = "serial"   // RunSource, one goroutine, read order
	modeParallel = "parallel" // RunSource with Parallel workers (sharded pipeline)
	modeCluster  = "cluster"  // journaled coordinator on lpserve, in-process workers
)

// workers is the parallel width of the parallel and cluster workloads:
// fixed rather than nproc, so a report means the same work on any host.
const workers = 2

// workload is one library shape and one way of folding it.
type workload struct {
	Name  string
	Bench string  // synthetic benchmark (prog suite name)
	Scale float64 // benchmark length scale
	// MaxPoints caps the sample design; the seed picks its offset.
	MaxPoints int
	Capture   string // configuration whose maxima the library stores
	Config    string // configuration the library is simulated under
	Mode      string
}

// workloads, in BENCHMARK.json order. README.md gives the reasons in full.
var workloads = []workload{
	{
		// Core-bound: small-footprint points on the 16-way core, serial;
		// the detailed core is ~90% of each point.
		Name:  "gzip16-serial",
		Bench: "syn.gzip", Scale: 0.15, MaxPoints: 64,
		Capture: "16way", Config: "16way", Mode: modeSerial,
	},
	{
		// Load-bound: 8 MB pointer-chase points captured at 16-way
		// maxima, run 8-way on 2 sharded workers; inflate and downsizing
		// are about a third of each point.
		Name:  "mcf8-parallel",
		Bench: "syn.mcf", Scale: 0.1, MaxPoints: 32,
		Capture: "16way", Config: "8way", Mode: modeParallel,
	},
	{
		// Fleet path: a journaled coordinator over loopback HTTP to 2
		// workers; lease, fetch and result round trips.
		Name:  "gcc8-cluster",
		Bench: "syn.gcc", Scale: 0.15, MaxPoints: 128,
		Capture: "8way", Config: "8way", Mode: modeCluster,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func configByName(name string) uarch.Config {
	if name == "16way" {
		return uarch.Config16Way()
	}
	return uarch.Config8Way()
}

// shards is the shard count of every generated library: two per worker,
// so the cluster workload shows the shard-granularity tail.
const shards = 2 * workers

// splitmix64 derives independent streams from one workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// setupTimes splits one set-up into its stages.
type setupTimes struct {
	Generate, Design, Capture, Encode, Write, Open, ClusterStart time.Duration
}

// library is one generated, written and opened live-point library.
type library struct {
	Store  *lpstore.Store
	Points int
	Shards int
	Setup  setupTimes
}

func (l *library) Close() error { return l.Store.Close() }

// buildLibrary generates the workload's program, draws a systematic
// sample design whose offset the seed selects, captures and encodes every
// point, shuffles them with a seed-derived permutation, writes a sharded
// store and opens it. The scale factor shrinks benchmark length and point
// count together (1 for real runs, small for self-tests).
func buildLibrary(w workload, seed int64, scale float64, path string) (*library, error) {
	var t setupTimes
	capCfg := configByName(w.Capture)
	runCfg := configByName(w.Config)

	t0 := time.Now()
	spec, err := prog.ByName(w.Bench)
	if err != nil {
		return nil, err
	}
	p := prog.Generate(spec, w.Scale*scale)
	t.Generate = time.Since(t0)

	t0 = time.Now()
	benchLen, err := warm.BenchLength(p, p.TargetLen*4+4_000_000)
	if err != nil {
		return nil, fmt.Errorf("%s: benchmark length: %w", w.Name, err)
	}
	maxPoints := int(float64(w.MaxPoints)*scale + 0.5)
	if maxPoints < shards {
		maxPoints = shards
	}
	population := int(benchLen / uarch.MeasureLen)
	stride := 10 * capCfg.WindowLen() / uarch.MeasureLen
	if population/stride > maxPoints {
		stride = population / maxPoints
	}
	h := splitmix64(uint64(seed))
	warmUnits := int((uint64(capCfg.DetailedWarm) + uarch.MeasureLen - 1) / uarch.MeasureLen)
	offset := warmUnits + 1 + int(h%uint64(stride))
	design, err := sampling.NewSystematic(benchLen, uarch.MeasureLen, uint64(capCfg.DetailedWarm), stride, offset)
	if err != nil {
		return nil, fmt.Errorf("%s: design: %w", w.Name, err)
	}
	t.Design = time.Since(t0)

	var blobs [][]byte
	t0 = time.Now()
	opts := livepoint.CreateOpts{MaxHier: capCfg.Hier, Preds: []bpred.Config{runCfg.BP}}
	err = livepoint.Create(p, design, opts, func(lp *livepoint.LivePoint) error {
		e0 := time.Now()
		blob, _ := livepoint.Encode(lp)
		t.Encode += time.Since(e0)
		blobs = append(blobs, blob)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: capture: %w", w.Name, err)
	}
	t.Capture = time.Since(t0) - t.Encode

	t0 = time.Now()
	rng := rand.New(rand.NewSource(int64(splitmix64(h))))
	rng.Shuffle(len(blobs), func(i, j int) { blobs[i], blobs[j] = blobs[j], blobs[i] })
	meta := livepoint.Meta{Benchmark: p.Name, UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	per := (len(blobs) + shards - 1) / shards
	if _, err := lpstore.Write(path, meta, blobs, lpstore.WriteOpts{ShardPoints: per}); err != nil {
		return nil, fmt.Errorf("%s: write: %w", w.Name, err)
	}
	t.Write = time.Since(t0)

	t0 = time.Now()
	st, err := lpstore.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", w.Name, err)
	}
	t.Open = time.Since(t0)
	return &library{Store: st, Points: st.Count(), Shards: st.NumShards(), Setup: t}, nil
}

// outcome is what one whole-library fold produced.
type outcome struct {
	N              int
	Mean           float64
	UnknownFetches uint64
	UnknownLoads   uint64
	CaptureErrors  uint64
}

func runOutcome(r *livepoint.RunResult) outcome {
	return outcome{N: r.Est.N(), Mean: r.Est.Mean(), UnknownFetches: r.UnknownFetches,
		UnknownLoads: r.UnknownLoads, CaptureErrors: r.CaptureErrors}
}

// localFold folds the whole library through RunSource in the given
// mode. wrap, when non-nil, decorates the store's source (tracing).
func localFold(lib *library, cfg uarch.Config, mode string, wrap func(livepoint.Source) livepoint.Source) (outcome, time.Duration, error) {
	opts := livepoint.RunOpts{Cfg: cfg}
	if mode == modeParallel {
		opts.Parallel = workers
	}
	t0 := time.Now()
	src := lib.Store.Source()
	if wrap != nil {
		src = wrap(src)
	}
	res, err := livepoint.RunSource(src, opts)
	el := time.Since(t0)
	src.Close()
	if err != nil {
		return outcome{}, el, err
	}
	return runOutcome(res), el, nil
}

// cluster is one journaled coordinator mounted on an lpserve server,
// listening on loopback, with one dialed client per worker. Each
// whole-library run gets a fresh cluster and metrics registry.
type cluster struct {
	coord   *lpcluster.Coordinator
	reg     *obs.Registry
	hs      *http.Server
	served  chan error
	clients []*lpserve.Client
	journal string
}

// startCluster brings a cluster up over lib. wrapHandler and transport,
// when non-nil, install the server- and client-side tracing hooks.
func startCluster(lib *library, w workload, journal string, wrapHandler func(http.Handler) http.Handler, transport func(worker int) http.RoundTripper) (*cluster, error) {
	_ = os.Remove(journal) // a stale journal would resume a finished run
	c := &cluster{reg: obs.NewRegistry(), served: make(chan error, 1), journal: journal}
	spec := lpcluster.RunSpec{Mode: lpcluster.ModeAbsolute, Config: w.Config}
	coord, err := lpcluster.NewJournaledCoordinator(lib.Store, spec, lpcluster.Options{Metrics: c.reg}, journal)
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	c.coord = coord
	srv := lpserve.NewServerWithMetrics(lib.Store, c.reg)
	coord.Mount(srv)
	var h http.Handler = srv.Handler()
	if wrapHandler != nil {
		h = wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	c.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { c.served <- c.hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	for i := 0; i < workers; i++ {
		cl := lpserve.New(url)
		cl.Metrics = c.reg
		if transport != nil {
			cl.SetTransport(transport(i))
		}
		if err := cl.Refresh(context.Background()); err != nil {
			c.stop()
			return nil, fmt.Errorf("worker %d dial: %w", i, err)
		}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

// run drives every worker until the coordinator finalizes and all
// workers have returned. The elapsed time runs from worker launch to the
// final estimate; worker exit (which can lag by one wait hint) is
// awaited but not timed.
func (c *cluster) run(ctx context.Context) (outcome, time.Duration, *lpcluster.ClusterResult, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(c.clients))
	t0 := time.Now()
	for i, cl := range c.clients {
		wg.Add(1)
		go func(i int, cl *lpserve.Client) {
			defer wg.Done()
			errs[i] = lpcluster.NewWorker(fmt.Sprintf("w%d", i), cl).Run(ctx)
		}(i, cl)
	}
	var el time.Duration
	select {
	case <-c.coord.Done():
		el = time.Since(t0)
	case <-ctx.Done():
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return outcome{}, el, nil, err
	}
	res, ok := c.coord.Final()
	if !ok {
		return outcome{}, el, nil, errors.New("cluster: coordinator did not finish")
	}
	return outcome{N: res.Est.N(), Mean: res.Est.Mean(), UnknownFetches: res.UnknownFetches,
		UnknownLoads: res.UnknownLoads, CaptureErrors: res.CaptureErrors}, el, res, nil
}

// stop shuts the server down, waits for it, closes the journal and
// removes it.
func (c *cluster) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, cl := range c.clients {
		cl.CloseIdle()
	}
	err := c.hs.Shutdown(ctx)
	if serr := <-c.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, c.coord.Close(), os.Remove(c.journal))
	return err
}

// counter reads a counter from the cluster's registry.
func (c *cluster) counter(name string) uint64 {
	return c.reg.Counter(name, "").Value()
}
