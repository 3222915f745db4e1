package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"livepoints/internal/functional"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpcluster"
	"livepoints/internal/mem"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
)

// span is one timed call into a layer. Parent is the enclosing span's ID
// (0 for a root); Trace groups the spans of one point (its read-order
// position) or one lease (its lease ID; -1 where the request carries
// none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so traced and untraced code paths are the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<15)} }

func (t *tracer) begin(name string, parent int32, trace int64) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Trace: trace, Start: now, End: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// setTrace relabels a span once its trace ID is known (a lease ID
// arrives in the response).
func (t *tracer) setTrace(id int32, trace int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Trace = trace
	t.mu.Unlock()
}

// mark returns a position; since(mark) returns the spans recorded after.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(m int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[m:]...)
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.since(0) {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children counted
// once).
func selfTimes(spans []span) map[int32]int64 {
	kids := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// replayStats accumulates what the serial replay measured.
type replayStats struct {
	Points                  int
	Cycles, Committed       uint64
	InflateBytes            uint64
	DecodeAllocs            uint64
	NewCoreBytes            uint64
	Elapsed                 time.Duration
	UnknownFetch, UnknownLd uint64
	CaptureErrs             uint64
	est                     sampling.Estimate
}

func (r replayStats) outcome() outcome {
	return outcome{N: r.est.N(), Mean: r.est.Mean(), UnknownFetches: r.UnknownFetch,
		UnknownLoads: r.UnknownLd, CaptureErrors: r.CaptureErrs}
}

// replay folds the library serially by making each layer's public calls
// in the order the serial runner makes them — shard open (inflate),
// NextBlob, DecodeInto, text and overlay binding, SimArena.Reconstruct,
// uarch.NewCore, Core.Run for warming and for measurement, Estimate.Add —
// with a span around each. Allocation probes sit outside the spans they
// describe; they stop the world, so only passes with probe set take them.
// The outcome must be bit-equal to RunSource's serial fold.
func replay(lib *library, cfg uarch.Config, tr *tracer, probe bool) (replayStats, error) {
	var st replayStats
	src := lib.Store.Source()
	defer src.Close()
	ss, ok := src.(livepoint.ShardedSource)
	if !ok {
		return st, errors.New("replay: store source is not sharded")
	}
	var (
		lp      livepoint.LivePoint
		arena   livepoint.SimArena
		overlay *mem.Overlay
	)
	t0 := time.Now()
	pos := 0
	for s := 0; s < ss.NumShards(); s++ {
		n, _, _, err := lib.Store.ShardStat(s)
		if err != nil {
			return st, err
		}
		a0 := probeAllocs(probe)
		id := tr.begin("lpstore.inflate", 0, int64(pos))
		sub, err := ss.OpenShard(s)
		tr.end(id)
		st.InflateBytes += probeAllocs(probe).sub(a0).bytes
		if err != nil {
			return st, err
		}
		for i := 0; i < n; i++ {
			if err := replayPoint(&st, tr, probe, int64(pos), sub, &lp, &arena, &overlay, cfg); err != nil {
				sub.Close()
				return st, fmt.Errorf("replay: point %d: %w", pos, err)
			}
			pos++
		}
		sub.Close()
	}
	st.Elapsed = time.Since(t0)
	return st, nil
}

// probeAllocs reads the allocation counters when probing, else returns
// zero (so differences are zero).
func probeAllocs(probe bool) allocSnap {
	if !probe {
		return allocSnap{}
	}
	return readAllocs()
}

func replayPoint(st *replayStats, tr *tracer, probe bool, pos int64, sub livepoint.Source, lp *livepoint.LivePoint,
	arena *livepoint.SimArena, overlay **mem.Overlay, cfg uarch.Config) error {
	pt := tr.begin("point", 0, pos)
	defer tr.end(pt)

	id := tr.begin("lpstore.next_blob", pt, pos)
	blob, err := sub.NextBlob()
	tr.end(id)
	if err != nil {
		return err
	}

	a0 := probeAllocs(probe)
	id = tr.begin("livepoint.decode", pt, pos)
	err = livepoint.DecodeInto(lp, blob)
	tr.end(id)
	st.DecodeAllocs += probeAllocs(probe).sub(a0).objects
	if err != nil {
		return err
	}
	if lp.FuncWarm != 0 {
		return errors.New("functional-warming checkpoints are not replayed")
	}

	id = tr.begin("livepoint.text", pt, pos)
	text := lp.TextSource()
	tr.end(id)

	id = tr.begin("mem.overlay", pt, pos)
	if *overlay == nil {
		*overlay = mem.NewOverlay(&lp.Mem)
	} else {
		(*overlay).Rebind(&lp.Mem)
	}
	tr.end(id)

	id = tr.begin("livepoint.reconstruct", pt, pos)
	hier, bp, err := arena.Reconstruct(lp, cfg)
	tr.end(id)
	if err != nil {
		return err
	}

	a0 = probeAllocs(probe)
	id = tr.begin("uarch.new_core", pt, pos)
	core := uarch.NewCore(cfg, text, *overlay, functional.State{PC: lp.Arch.PC, Regs: lp.Arch.Regs}, hier, bp)
	tr.end(id)
	st.NewCoreBytes += probeAllocs(probe).sub(a0).bytes

	id = tr.begin("uarch.warm", pt, pos)
	nw := core.Run(lp.WarmLen)
	tr.end(id)
	atMeasure := core.Cycle()
	id = tr.begin("uarch.measure", pt, pos)
	nm := core.Run(lp.UnitLen)
	tr.end(id)
	if nw != lp.WarmLen || nm != lp.UnitLen {
		return fmt.Errorf("window halted (%d/%d warm, %d/%d measured)", nw, lp.WarmLen, nm, lp.UnitLen)
	}
	cpi := float64(core.Cycle()-atMeasure) / float64(lp.UnitLen)

	id = tr.begin("sampling.fold", pt, pos)
	st.est.Add(cpi)
	tr.end(id)

	st.Points++
	st.Cycles += core.Cycle()
	st.Committed += core.Stat.Committed
	st.UnknownFetch += core.Stat.UnknownFetches
	st.UnknownLd += core.Stat.UnknownLoads
	st.CaptureErrs += core.Stat.CorrectPathUnknownLoads + core.Stat.CorrectPathUnknownFetches
	return nil
}

// timedSource decorates a Source (and, through timedShards, the shard
// sub-sources the parallel runner opens) with spans around NextBlob and
// OpenShard: the time the real runner spends blocked on the store.
type timedSource struct {
	livepoint.Source
	tr *tracer
	// positions are the read-order positions of the blobs in order; nil
	// means the i-th blob is position i (the whole store in read order).
	positions []int
	i         int
}

func (s *timedSource) NextBlob() ([]byte, error) {
	pos := int64(s.i)
	if s.positions != nil {
		pos = -1 // past the end: the EOF call
		if s.i < len(s.positions) {
			pos = int64(s.positions[s.i])
		}
	}
	id := s.tr.begin("source.next_blob", 0, pos)
	b, err := s.Source.NextBlob()
	s.tr.end(id)
	s.i++
	return b, err
}

type timedShards struct {
	timedSource
	ss  livepoint.ShardedSource
	lib *library
}

func (s *timedShards) NumShards() int { return s.ss.NumShards() }

func (s *timedShards) OpenShard(sh int) (livepoint.Source, error) {
	positions, err := s.lib.Store.ShardReadPositions(sh)
	if err != nil {
		return nil, err
	}
	id := s.tr.begin("source.open_shard", 0, int64(positions[0]))
	sub, err := s.ss.OpenShard(sh)
	s.tr.end(id)
	if err != nil {
		return nil, err
	}
	return &timedSource{Source: sub, tr: s.tr, positions: positions}, nil
}

// decorate returns the source wrapper for traced local passes. The
// store's Source is always a ShardedSource.
func decorate(lib *library, tr *tracer) func(livepoint.Source) livepoint.Source {
	return func(src livepoint.Source) livepoint.Source {
		return &timedShards{timedSource: timedSource{Source: src, tr: tr}, ss: src.(livepoint.ShardedSource), lib: lib}
	}
}

// urlClass names a request by what it does in the protocol; trace is
// the shard number for shard requests, else -1.
func urlClass(r *http.Request) (class string, trace int64) {
	p := r.URL.Path
	switch {
	case p == "/v1/leases":
		return "lpcluster.lease", -1
	case p == "/v1/results":
		return "lpcluster.result", -1
	case p == "/v1/run":
		return "lpcluster.run_spec", -1
	case p == "/v1/stat":
		return "lpserve.stat", -1
	case p == "/v1/points":
		return "lpserve.points", -1
	case strings.HasPrefix(p, "/v1/shards/"):
		rest, index := strings.CutSuffix(strings.TrimPrefix(p, "/v1/shards/"), "/index")
		n, err := strconv.Atoi(rest)
		if err != nil {
			n = -1
		}
		if index {
			return "lpserve.shard_index", int64(n)
		}
		return "lpserve.shard_data", int64(n)
	}
	return "http.other", -1
}

// tracingTransport is a worker client's RoundTripper: a span per request
// from send to the end of the response body, under the worker's root
// span. Lease responses are read eagerly so the span learns its lease ID
// and wait responses are counted.
type tracingTransport struct {
	base  http.RoundTripper
	tr    *tracer
	root  int32
	waits *atomic.Int64
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	class, trace := urlClass(req)
	if class == "lpcluster.result" && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			var res lpcluster.Result
			if json.NewDecoder(body).Decode(&res) == nil {
				trace = int64(res.LeaseID)
			}
			body.Close()
		}
	}
	id := t.tr.begin(class, t.root, trace)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	if class == "lpcluster.lease" {
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.tr.end(id)
		if err != nil {
			return nil, err
		}
		var lr lpcluster.LeaseResponse
		if json.Unmarshal(b, &lr) == nil {
			if lr.Lease != nil {
				t.tr.setTrace(id, int64(lr.Lease.ID))
			}
			if lr.Wait {
				t.waits.Add(1)
			}
		}
		resp.Body = io.NopCloser(bytes.NewReader(b))
		return resp, nil
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.end(id) }}
	return resp, nil
}

// CloseIdleConnections lets Client.CloseIdle reach the base transport.
func (t *tracingTransport) CloseIdleConnections() {
	if ci, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// traceHandler wraps the server's handler: a root span per request
// (named <class>.server) and a count of request plus response bytes.
func traceHandler(tr *tracer, wire *atomic.Int64) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			class, trace := urlClass(r)
			id := tr.begin(class+".server", 0, trace)
			cw := &countingWriter{ResponseWriter: w}
			h.ServeHTTP(cw, r)
			tr.end(id)
			wire.Add(cw.n + max(r.ContentLength, 0))
		})
	}
}

// countingWriter counts response body bytes; Unwrap keeps
// http.ResponseController (flush, deadlines) working through it.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
