// Command e2ebench is the repository's end-to-end benchmark: it generates
// a seeded live-point library for one workload, folds it through the
// program's public entry points for a fixed wall-clock budget, checks
// every estimate, and prints the metrics by name with their units. With
// -trace 1 it instead runs the traced ledger: spans recorded around every
// layer's public calls, reduced to per-layer self times.
//
//	e2ebench --workload gzip16-serial --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Lines before it are the human-readable report (host block, ledger,
// correctness messages). See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one invocation's settings.
type options struct {
	Seed    int64
	Seconds time.Duration
	Trace   bool
	WorkDir string
	// Scale shrinks libraries for self-tests (1 for real runs).
	Scale float64
	// Setups is how many times set-up is repeated (median reported).
	Setups int
	// Pins are the reference outcomes checked at DefaultSeed: the
	// recorded pins for real runs, deliberate ones in self-tests.
	Pins map[string]pin
	// Root is the module checkout, digested into the host block.
	Root string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seedStr := fs.String("seed", strconv.Itoa(DefaultSeed), "workload seed (selects sample offset and shuffle)")
	secs := fs.Float64("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	workDir := fs.String("workdir", ".bench_build/work", "scratch directory for libraries, journals and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (have:", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.Name)
		}
		fmt.Fprintln(stderr, ")")
		return 2
	}
	seed, err := parseSeed(*seedStr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	o := options{Seed: seed, Seconds: time.Duration(*secs * float64(time.Second)), Trace: *trace == 1,
		WorkDir: *workDir, Scale: 1, Setups: 3, Pins: pins, Root: "."}
	rep, err := execute(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

func parseSeed(s string) (int64, error) {
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad --seed %q", s)
	}
	return int64(v), nil
}

func execute(w workload, o options) (*report, error) {
	if o.Trace {
		return traceRun(w, o)
	}
	return measure(w, o)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one invocation's outcome.
type report struct {
	Workload  string
	Seed      int64
	Host      hostInfo
	Metrics   map[string]metric
	Attempted int
	Gate      gate
	// Lines are the human-readable report, printed before the result.
	Lines []string
}

func newReport(w workload, o options) *report {
	return &report{Workload: w.Name, Seed: o.Seed, Host: collectHost(o.Root), Metrics: map[string]metric{}}
}

// set records a metric. A value that could not be measured (every pass
// failed) is reported as 0 with a note; the failed checks already make the
// run incorrect.
func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.line("%s not measured", name)
		v = 0
	}
	r.Metrics[name] = metric{v, unit}
}

func (r *report) line(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.Gate.failed == 0 }

// print writes the human-readable report, then the result as the last
// line.
func (r *report) print(w io.Writer) error {
	host, err := json.Marshal(map[string]any{"host": r.Host, "workload": r.Workload, "seed": r.Seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", host)
	for _, l := range r.Lines {
		fmt.Fprintf(w, "# %s\n", l)
	}
	for _, m := range r.Gate.messages {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", m)
	}
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Gate.failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "# error_rate %.6g (%d failed of %d attempted)\n", errRate, r.Gate.failed, r.Attempted)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-40s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), max(r.Attempted, 1), r.Gate.failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// setup builds the workload's library o.Setups times and keeps the last;
// for the cluster workload each set-up also starts the coordinator,
// server and workers (stopped again, untimed). It returns the library and
// each set-up's wall time up to the moment everything is ready.
func setup(w workload, o options) (*library, []float64, error) {
	var lib *library
	var times []float64
	for i := 0; i < max(o.Setups, 1); i++ {
		if lib != nil {
			lib.Close()
		}
		t0 := time.Now()
		var err error
		lib, err = buildLibrary(w, o.Seed, o.Scale, filepath.Join(o.WorkDir, w.Name+".lplib"))
		if err != nil {
			return nil, nil, err
		}
		ready := time.Since(t0)
		if w.Mode == modeCluster {
			c0 := time.Now()
			c, err := startCluster(lib, w, filepath.Join(o.WorkDir, w.Name+".journal"), nil, nil)
			if err != nil {
				lib.Close()
				return nil, nil, err
			}
			lib.Setup.ClusterStart = time.Since(c0)
			ready = time.Since(t0)
			if err := c.stop(); err != nil {
				lib.Close()
				return nil, nil, err
			}
		}
		times = append(times, ready.Seconds())
		// Start every set-up (and the runs after the last) from the same
		// heap, so the resident high-water mark does not depend on how
		// much garbage earlier set-ups left behind.
		runtime.GC()
		debug.FreeOSMemory()
	}
	return lib, times, nil
}

// reference folds the library serially and checks it against the
// workload's pin when the run uses the pinned seed.
func reference(w workload, o options, lib *library, rep *report) (outcome, error) {
	ref, _, err := localFold(lib, configByName(w.Config), modeSerial, nil)
	if err != nil {
		return outcome{}, fmt.Errorf("serial reference fold: %w", err)
	}
	rep.Gate.checkClean("serial reference", ref)
	if p, ok := o.Pins[w.Name]; ok && o.Seed == DefaultSeed {
		rep.Gate.checkPin(w.Name, p, ref)
		rep.line("pinned reference compared at seed %d", DefaultSeed)
	}
	rep.line("serial reference: N=%d mean CPI=%v (bits %#x) unknownFetches=%d unknownLoads=%d",
		ref.N, ref.Mean, math.Float64bits(ref.Mean), ref.UnknownFetches, ref.UnknownLoads)
	return ref, nil
}

// measure is the untraced end-to-end run: set-up, a serial reference
// fold, then whole-library passes in the workload's mode until the
// budget is spent.
func measure(w workload, o options) (*report, error) {
	rep := newReport(w, o)
	lib, setups, err := setup(w, o)
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

	a0 := readAllocs()
	var pps, passSecs, cpuPer []float64
	folded := 0
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < o.Seconds; pass++ {
		rep.Attempted += lib.Points
		var got outcome
		var el time.Duration
		// Every pass starts from a collected heap, so one pass's garbage
		// does not land in the next one's time.
		runtime.GC()
		c0 := cpuTime()
		if w.Mode == modeCluster {
			got, el, _, err = clusterPass(lib, w, o, nil, nil)
		} else {
			got, el, err = localFold(lib, cfg, w.Mode, nil)
		}
		cpu := cpuTime() - c0
		if !rep.Gate.checkPass(fmt.Sprintf("pass %d (%s)", pass, w.Mode), w.Mode, lib.Points, got, err, ref) {
			continue
		}
		folded += got.N
		pps = append(pps, float64(got.N)/el.Seconds())
		passSecs = append(passSecs, el.Seconds())
		cpuPer = append(cpuPer, float64(cpu)/1e6/float64(got.N))
	}
	used := readAllocs().sub(a0)
	per := float64(max(folded, 1))

	rep.set("points_per_s", median(pps), "1/s")
	rep.set("setup_s", median(setups), "s")
	rep.set("cpu_ms_per_point", median(cpuPer), "ms")
	rep.set("alloc_bytes_per_point", float64(used.bytes)/per, "B")
	rep.set("allocs_per_point", float64(used.objects)/per, "count")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	d := summarize(passSecs)
	rep.line("pass time over %d passes: median %.4g s, p%d %.4g s", d.N, d.P50, d.TailPct, d.Tail)
	rep.line("setup_s per set-up: %v (last: generate %v, design %v, capture %v, encode %v, write %v, open %v, cluster start %v)",
		setups, lib.Setup.Generate, lib.Setup.Design, lib.Setup.Capture, lib.Setup.Encode,
		lib.Setup.Write, lib.Setup.Open, lib.Setup.ClusterStart)
	rep.line("allocation base: %d points folded over %d passes", folded, len(pps))
	return rep, nil
}

// clusterStats are a cluster pass's protocol-level counts.
type clusterStats struct {
	Reassigned int    // leases reissued after TTL expiry
	Retries    uint64 // client attempts re-issued or bodies refetched
}

// clusterPass runs one whole-library cluster fold on a fresh cluster;
// only the run itself is timed. The hooks install tracing (nil: none).
func clusterPass(lib *library, w workload, o options, wrapHandler func(http.Handler) http.Handler, transport func(int) http.RoundTripper) (outcome, time.Duration, clusterStats, error) {
	c, err := startCluster(lib, w, filepath.Join(o.WorkDir, w.Name+".journal"), wrapHandler, transport)
	if err != nil {
		return outcome{}, 0, clusterStats{}, err
	}
	got, el, res, err := c.run(context.Background())
	var cs clusterStats
	if res != nil {
		cs.Reassigned = res.Reassigned
	}
	cs.Retries = c.counter("lpserve_client_retries_total") + c.counter("lpserve_client_body_retries_total")
	if serr := c.stop(); err == nil {
		err = serr
	}
	return got, el, cs, err
}
