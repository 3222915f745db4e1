package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// result is the last line of the command's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tiny returns options for a fast run at a small fraction of the real
// library size.
func tiny(t *testing.T, trace bool) options {
	return options{Seed: DefaultSeed, Seconds: 200 * time.Millisecond, Trace: trace,
		WorkDir: t.TempDir(), Scale: 0.2, Setups: 1, Root: ".."}
}

func runTiny(t *testing.T, w workload, o options) (result, string) {
	t.Helper()
	rep, err := execute(w, o)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	var out bytes.Buffer
	if err := rep.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", w.Name, err)
	}
	return res, out.String()
}

// checkMetrics requires exactly the named metrics, each with its unit and
// a finite value.
func checkMetrics(t *testing.T, w string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", w, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", w, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", w, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: metric %s = %v", w, m.Name, g.Value)
		}
	}
}

// TestWorkloadsTiny runs every workload once untraced and once traced at
// a tiny scale: every metric BENCHMARK.json names is present with its
// unit, every estimate passes the correctness gate, and the ledger keeps
// the workload design (uarch dominates the core-bound workload).
func TestWorkloadsTiny(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		w := workloads[i]
		if sw.Name != w.Name {
			t.Fatalf("workload %d: BENCHMARK.json %q, benchmark %q", i, sw.Name, w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, out := runTiny(t, w, tiny(t, trace))
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d\n%s", trace, res.Correct, res.Failed, res.Attempted, out)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				checkMetrics(t, w.Name, res.Metrics, want)
				if trace && w.Mode == modeSerial {
					if u, l := res.Metrics["ledger.uarch_share_pct"].Value, res.Metrics["ledger.load_share_pct"].Value; u <= l {
						t.Errorf("uarch share %.1f%% not above load share %.1f%%", u, l)
					}
				}
			}
		})
	}
}

// TestGateTripsOnWrongReference pins a deliberately wrong mean: the run
// must report itself incorrect, count the failure and say why.
func TestGateTripsOnWrongReference(t *testing.T) {
	w, _ := workloadByName("gzip16-serial")
	o := tiny(t, false)
	o.Pins = map[string]pin{w.Name: {N: 1, MeanBits: math.Float64bits(1.5)}}
	res, out := runTiny(t, w, o)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("wrong reference accepted: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if !strings.Contains(out, "CHECK FAILED") {
		t.Errorf("no failure message in report:\n%s", out)
	}
}

// TestGateTolerances checks the per-path comparison rules directly.
func TestGateTolerances(t *testing.T) {
	ref := outcome{N: 10, Mean: 1.25, UnknownLoads: 3}
	near := ref
	near.Mean = math.Nextafter(ref.Mean, 2)
	far := ref
	far.Mean = ref.Mean * (1 + 1e-9)
	miscount := ref
	miscount.UnknownLoads++
	dirty := ref
	dirty.CaptureErrors = 1
	for _, c := range []struct {
		mode string
		got  outcome
		fail bool
	}{
		{modeSerial, ref, false},
		{modeSerial, near, true}, // serial and cluster are bit-exact
		{modeCluster, near, true},
		{modeParallel, near, false}, // parallel allows 1e-12 relative
		{modeParallel, far, true},
		{modeParallel, miscount, true}, // counts are exact on every path
		{modeSerial, dirty, true},
	} {
		var g gate
		g.checkMatch("case", c.mode, c.got, ref)
		if (g.failed > 0) != c.fail {
			t.Errorf("%s %+v: failed=%d, want failure=%v", c.mode, c.got, g.failed, c.fail)
		}
	}
}

// TestSummarize checks the tail-percentile rule: the highest percentile
// with at least ten samples beyond it, or the median when none has.
func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := summarize(xs)
	if d.N != 100 || d.P50 != 50.5 || d.TailPct != 90 || d.Tail != 90 {
		t.Errorf("100 samples: %+v", d)
	}
	if d := summarize(xs[:15]); d.TailPct != 50 || d.Tail != d.P50 {
		t.Errorf("15 samples: %+v", d)
	}
}

// TestSelfTimes checks that self time subtracts the union of children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if self[1] != 100-50-10 || self[2] != 30 || self[3] != 30 {
		t.Errorf("self times %v", self)
	}
}
