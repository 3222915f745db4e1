package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"livepoints/internal/livepoint"
)

// Layer groups for the ledger's shares: every replay span name belongs to
// exactly one.
var layerOf = map[string]string{
	"lpstore.inflate":       "load",
	"lpstore.next_blob":     "load",
	"livepoint.decode":      "load",
	"livepoint.text":        "load",
	"mem.overlay":           "load",
	"livepoint.reconstruct": "load",
	"uarch.new_core":        "uarch",
	"uarch.warm":            "uarch",
	"uarch.measure":         "uarch",
	"sampling.fold":         "fold",
	"point":                 "harness", // the replay loop itself: reported, not in the shares
}

// traceRun is the traced ledger: one set-up, the serial reference fold,
// then three phases splitting the budget —
//
//	A. serial replay with a span around every public call (per-layer self
//	   time, allocations, simulated-event counts);
//	B. the real local runner (the workload's mode; serial for the cluster
//	   workload), alternating untraced and source-decorated passes
//	   (source wait, local tracing overhead);
//	C. cluster passes over the same library, alternating untraced and
//	   traced (round-trip timings, server time, wire bytes, idle share,
//	   cluster tracing overhead).
//
// Every pass is checked against the serial fold.
func traceRun(w workload, o options) (*report, error) {
	rep := newReport(w, o)
	o1 := o
	o1.Setups = 1
	lib, _, err := setup(w, o1)
	if err != nil {
		return nil, err
	}
	defer lib.Close()
	rep.line("library: %d points in %d shards (%s, scale %.3g)", lib.Points, lib.Shards, w.Bench, w.Scale*o.Scale)
	ref, err := reference(w, o, lib, rep)
	if err != nil {
		return nil, err
	}
	cfg := configByName(w.Config)
	tr := newTracer()
	budget := o.Seconds / 3

	// A. Replay.
	// The first pass probes allocations (and is excluded from the
	// timings); later passes are timed only.
	var rs replayStats
	probed := 0
	passes := 0
	timed := 0 // first span of the timed passes
	for start := time.Now(); passes < 2 || time.Since(start) < budget; passes++ {
		rep.Attempted += lib.Points
		probe := passes == 0
		st, err := replay(lib, cfg, tr, probe)
		if probe {
			timed = tr.mark()
		}
		if !rep.Gate.checkPass(fmt.Sprintf("replay pass %d", passes), modeSerial, lib.Points, st.outcome(), err, ref) {
			continue
		}
		if probe {
			probed = st.Points
			rs.InflateBytes, rs.DecodeAllocs, rs.NewCoreBytes = st.InflateBytes, st.DecodeAllocs, st.NewCoreBytes
			continue
		}
		rs.Points += st.Points
		rs.Cycles += st.Cycles
		rs.Committed += st.Committed
		rs.Elapsed += st.Elapsed
	}
	replayLedger(rep, tr.since(timed), rs, passes-1, probed)

	// B. Real local runner.
	localMode := w.Mode
	if localMode == modeCluster {
		localMode = modeSerial
	}
	var plain, decorated []float64
	var waitNS int64
	decoratedPoints := 0
	for pair, start := 0, time.Now(); pair == 0 || time.Since(start) < budget; pair++ {
		for k := 0; k < 2; k++ {
			traced := (pair+k)%2 == 1 // alternate which side runs first
			var wrap func(livepoint.Source) livepoint.Source
			m := tr.mark()
			if traced {
				wrap = decorate(lib, tr)
			}
			rep.Attempted += lib.Points
			runtime.GC() // as in measure: each pass starts from a collected heap
			got, el, err := localFold(lib, cfg, localMode, wrap)
			if !rep.Gate.checkPass(fmt.Sprintf("local %s pass (traced=%v)", localMode, traced), localMode, lib.Points, got, err, ref) {
				continue
			}
			pps := float64(got.N) / el.Seconds()
			if !traced {
				plain = append(plain, pps)
				continue
			}
			decorated = append(decorated, pps)
			decoratedPoints += got.N
			for _, s := range tr.since(m) {
				waitNS += s.dur()
			}
		}
	}
	rep.set("livepoint.source_wait_ns_per_point", float64(waitNS)/float64(max(decoratedPoints, 1)), "ns")
	rep.set("trace.local_untraced_points_per_s", median(plain), "1/s")
	rep.set("trace.local_overhead_pct", overheadPct(plain, decorated), "%")
	rep.line("local %s runner: untraced %.4g points/s (%d passes), decorated %.4g points/s (%d passes); source wait base %d points",
		localMode, median(plain), len(plain), median(decorated), len(decorated), decoratedPoints)

	// C. Cluster.
	clusterLedger(rep, lib, w, o, tr, ref, budget)

	// Set-up stages, from the single set-up.
	rep.set("livepoint.capture_s", lib.Setup.Capture.Seconds(), "s")
	rep.set("livepoint.encode_s", lib.Setup.Encode.Seconds(), "s")
	rep.set("lpstore.write_s", lib.Setup.Write.Seconds(), "s")

	spans := filepath.Join(o.WorkDir, fmt.Sprintf("%s-seed%d-spans.jsonl", w.Name, o.Seed))
	if err := tr.write(spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.line("spans written to %s", spans)
	return rep, nil
}

// overheadPct is the tracing overhead: how much slower the traced
// median rate is than the untraced one, in percent of the untraced.
func overheadPct(untraced, traced []float64) float64 {
	u, t := median(untraced), median(traced)
	return 100 * (u - t) / u
}

// replayLedger reduces the replay's spans to per-layer self times,
// per-point distributions and shares, and sets the uarch and load
// metrics.
func replayLedger(rep *report, spans []span, rs replayStats, passes, probed int) {
	self := selfTimes(spans)
	byName := map[string]int64{}
	perPoint := map[string]map[int32]int64{} // name -> root span -> self ns
	var pointTotals []float64
	var total int64
	for _, s := range spans {
		ns := self[s.ID]
		byName[s.Name] += ns
		if layerOf[s.Name] != "harness" {
			total += ns
		}
		if perPoint[s.Name] == nil {
			perPoint[s.Name] = map[int32]int64{}
		}
		root := s.ID
		if s.Parent != 0 {
			root = s.Parent
		}
		perPoint[s.Name][root] += ns
		if s.Name == "point" {
			pointTotals = append(pointTotals, float64(s.dur())/1e6)
		}
	}
	n := max(rs.Points, 1)
	per := func(name string) float64 { return float64(byName[name]) / float64(n) }

	rep.set("uarch.new_core_ns_per_point", per("uarch.new_core"), "ns")
	probedN := float64(max(probed, 1))
	rep.set("uarch.new_core_bytes_per_point", float64(rs.NewCoreBytes)/probedN, "B")
	rep.set("uarch.warm_ns_per_point", per("uarch.warm"), "ns")
	rep.set("uarch.measure_ns_per_point", per("uarch.measure"), "ns")
	simNS := float64(byName["uarch.warm"] + byName["uarch.measure"])
	rep.set("uarch.ns_per_sim_cycle", simNS/float64(max(rs.Cycles, 1)), "ns")
	rep.set("uarch.sim_kips", float64(rs.Committed)/(simNS/1e9)/1e3, "kinst/s")
	rep.set("uarch.sim_cycles_per_point", float64(rs.Cycles)/float64(n), "count")
	rep.set("uarch.committed_per_point", float64(rs.Committed)/float64(n), "count")
	rep.set("lpstore.inflate_ns_per_point", per("lpstore.inflate"), "ns")
	rep.set("lpstore.inflate_bytes_per_point", float64(rs.InflateBytes)/probedN, "B")
	rep.set("lpstore.next_blob_ns_per_point", per("lpstore.next_blob"), "ns")
	rep.set("livepoint.decode_ns_per_point", per("livepoint.decode"), "ns")
	rep.set("livepoint.decode_allocs_per_point", float64(rs.DecodeAllocs)/probedN, "count")
	rep.set("livepoint.reconstruct_ns_per_point", per("livepoint.reconstruct"), "ns")
	rep.set("livepoint.text_ns_per_point", per("livepoint.text"), "ns")
	rep.set("mem.overlay_ns_per_point", per("mem.overlay"), "ns")
	rep.set("sampling.fold_ns_per_point", per("sampling.fold"), "ns")

	groups := map[string]int64{}
	for name, ns := range byName {
		groups[layerOf[name]] += ns
	}
	share := func(g string) float64 { return 100 * float64(groups[g]) / float64(max(total, 1)) }
	rep.set("ledger.uarch_share_pct", share("uarch"), "%")
	rep.set("ledger.load_share_pct", share("load"), "%")
	rep.set("ledger.traced_points", float64(rs.Points), "count")
	d := summarize(pointTotals)
	rep.set("ledger.point_ms_p50", d.P50, "ms")
	rep.set("ledger.point_ms_tail", d.Tail, "ms")
	rep.set("ledger.point_ms_tail_pct", float64(d.TailPct), "%")

	rep.line("replay: %d timed passes, %d points, %.4g points/s, %d simulated cycles, %d committed instructions; allocation probes over %d points",
		passes, rs.Points, float64(rs.Points)/rs.Elapsed.Seconds(), rs.Cycles, rs.Committed, probed)
	rep.line("ledger (self time per point; shares of the %.4g ms per point spent in program layers):", float64(total)/float64(n)/1e6)
	rep.line("  %-24s %-8s %12s %7s %12s %12s %6s", "span", "layer", "mean_ns", "share", "p50_ns", "tail_ns", "n")
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	for _, name := range names {
		var xs []float64
		for _, ns := range perPoint[name] {
			xs = append(xs, float64(ns))
		}
		pd := summarize(xs)
		rep.line("  %-24s %-8s %12.0f %6.2f%% %12.0f %12.0f %6d  (tail = p%d)", name, layerOf[name], per(name),
			100*float64(byName[name])/float64(max(total, 1)), pd.P50, pd.Tail, pd.N, pd.TailPct)
	}
	rep.line("layer shares: uarch %.2f%%, load %.2f%%, fold %.3f%%, harness %.2f%%",
		share("uarch"), share("load"), share("fold"), share("harness"))
}

// clusterLedger runs phase C: cluster passes alternating untraced and
// traced, and sets the cluster metrics from the traced passes' spans.
func clusterLedger(rep *report, lib *library, w workload, o options, tr *tracer, ref outcome, budget time.Duration) {
	var plain, traced []float64
	var lease, result, fetch, busy, waits, idle, wall []float64
	var wire atomic.Int64
	tracedPoints, reassigned := 0, 0
	var retries uint64
	for pair, start := 0, time.Now(); pair == 0 || time.Since(start) < budget; pair++ {
		for k := 0; k < 2; k++ {
			on := (pair+k)%2 == 1
			var wrapHandler func(http.Handler) http.Handler
			var transport func(int) http.RoundTripper
			var waitCount atomic.Int64
			var roots []int32
			m := tr.mark()
			if on {
				wrapHandler = traceHandler(tr, &wire)
				transport = func(i int) http.RoundTripper {
					root := tr.begin("lpcluster.worker", 0, int64(i))
					roots = append(roots, root)
					return &tracingTransport{base: http.DefaultTransport, tr: tr, root: root, waits: &waitCount}
				}
			}
			rep.Attempted += lib.Points
			runtime.GC()
			got, el, cs, err := clusterPass(lib, w, o, wrapHandler, transport)
			for _, r := range roots {
				tr.end(r)
			}
			if !rep.Gate.checkPass(fmt.Sprintf("cluster pass (traced=%v)", on), modeCluster, lib.Points, got, err, ref) {
				continue
			}
			retries += cs.Retries
			reassigned += cs.Reassigned
			pps := float64(got.N) / el.Seconds()
			if !on {
				plain = append(plain, pps)
				continue
			}
			traced = append(traced, pps)
			tracedPoints += got.N
			waits = append(waits, float64(waitCount.Load()))
			l, r, f, b, leaseBusy := clusterSpans(tr.since(m))
			lease, result, fetch = append(lease, l...), append(result, r...), append(fetch, f...)
			busy = append(busy, b)
			workerWall := el.Seconds() * float64(workers)
			wall = append(wall, workerWall)
			idle = append(idle, 100*(1-leaseBusy/workerWall))
		}
	}
	setDist := func(prefix string, xs []float64) {
		d := summarize(xs)
		rep.set(prefix+"_ms_p50", d.P50, "ms")
		rep.set(prefix+"_ms_tail", d.Tail, "ms")
		rep.set(prefix+"_ms_tail_pct", float64(d.TailPct), "%")
		rep.set(prefix+"_samples", float64(d.N), "count")
	}
	setDist("lpcluster.lease_rtt", lease)
	setDist("lpcluster.result_rtt", result)
	setDist("lpserve.shard_fetch", fetch)
	rep.set("lpserve.server_busy_ms", median(busy), "ms")
	rep.set("lpserve.wire_bytes_per_point", float64(wire.Load())/float64(max(tracedPoints, 1)), "B")
	rep.set("lpcluster.worker_idle_share_pct", median(idle), "%")
	rep.set("lpcluster.worker_wall_s", median(wall), "s")
	rep.set("lpcluster.wait_responses", median(waits), "count")
	rep.set("lpcluster.reassigned_leases", float64(reassigned), "count")
	rep.set("lpserve.retries", float64(retries), "count")
	rep.set("trace.cluster_untraced_points_per_s", median(plain), "1/s")
	rep.set("trace.cluster_overhead_pct", overheadPct(plain, traced), "%")
	rep.line("cluster: untraced %.4g points/s (%d passes), traced %.4g points/s (%d passes, %d points); per traced pass medians: server busy %.4g ms, %g wait responses, worker idle %.3g%% of %.4g worker-s",
		median(plain), len(plain), median(traced), len(traced), tracedPoints, median(busy), median(waits), median(idle), median(wall))
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"lease round trip", lease}, {"result round trip (journal fsync included)", result}, {"shard fetch (index + gzip body, client inflate included)", fetch}} {
		d := summarize(c.xs)
		rep.line("  %s: median %.4g ms, p%d %.4g ms, n=%d", c.name, d.P50, d.TailPct, d.Tail, d.N)
	}
}

// clusterSpans extracts one traced cluster pass's per-request samples
// (ms): lease and result round trips, per-lease shard fetches (index plus
// data request), the summed server handler time (ms), and the workers'
// busy time (s) — from each granted lease's response to its result's
// response.
func clusterSpans(spans []span) (lease, result, fetch []float64, serverMS, busyS float64) {
	type key struct {
		root  int32
		shard int64
	}
	fetches := map[key]int64{}
	leaseEnd := map[int64]int64{}
	resultEnd := map[int64]int64{}
	for _, s := range spans {
		switch {
		case s.Name == "lpcluster.lease":
			lease = append(lease, float64(s.dur())/1e6)
			if s.Trace >= 0 {
				leaseEnd[s.Trace] = s.End
			}
		case s.Name == "lpcluster.result":
			result = append(result, float64(s.dur())/1e6)
			if s.Trace >= 0 {
				resultEnd[s.Trace] = s.End
			}
		case s.Name == "lpserve.shard_index" || s.Name == "lpserve.shard_data":
			fetches[key{s.Parent, s.Trace}] += s.dur()
		case strings.HasSuffix(s.Name, ".server"):
			serverMS += float64(s.dur()) / 1e6
		}
	}
	for _, ns := range fetches {
		fetch = append(fetch, float64(ns)/1e6)
	}
	for id, end := range leaseEnd {
		if rend, ok := resultEnd[id]; ok {
			busyS += float64(rend-end) / 1e9
		}
	}
	return lease, result, fetch, serverMS, busyS
}
