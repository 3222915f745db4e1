package uarch_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"livepoints/internal/bpred"
	"livepoints/internal/functional"
	"livepoints/internal/livepoint"
	"livepoints/internal/mem"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
)

var update = flag.Bool("update", false, "rewrite the golden cycle fixture in testdata")

const goldenPath = "testdata/golden_cycles.txt"

// goldenConfigs are the machines the fixture pins: both Table 1 columns
// and an 8-way core whose RUU size is not a power of two.
func goldenConfigs() []uarch.Config {
	ruu48 := uarch.Config8Way()
	ruu48.Name = "8-way-ruu48"
	ruu48.RUUSize = 48
	return []uarch.Config{uarch.Config8Way(), uarch.Config16Way(), ruu48}
}

// goldenDesign places three windows early in each benchmark, so capture
// stays a short functional pass even on the smallest suite program.
var goldenDesign = sampling.Design{
	UnitLen:   uarch.MeasureLen,
	WarmLen:   4000,
	Positions: []uint64{6_000, 27_000, 61_000},
}

// TestGoldenCycles pins the detailed core cycle-exactly: every suite
// benchmark, each golden configuration, full and restricted live-state,
// with the core's event counts recorded at the end of detailed warming
// and at the end of measurement of every window. Any scheduler change
// that moves a single cycle anywhere fails here. Regenerate with
// `go test ./internal/uarch -run TestGoldenCycles -update` only when the
// simulated machine is meant to change.
func TestGoldenCycles(t *testing.T) {
	var got bytes.Buffer
	fmt.Fprintln(&got, "# bench config state window boundary cycles committed dispatched wrongpath recoveries unknownfetches unknownloads")
	for _, name := range prog.SuiteNames() {
		spec, err := prog.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := prog.Generate(spec, 0.01)
		for _, restricted := range []bool{false, true} {
			state := "full"
			if restricted {
				state = "restricted"
			}
			opts := livepoint.CreateOpts{
				MaxHier:    uarch.Config16Way().Hier,
				Preds:      []bpred.Config{uarch.Config8Way().BP, uarch.Config16Way().BP},
				Restricted: restricted,
			}
			var points []*livepoint.LivePoint
			if err := livepoint.Create(p, goldenDesign, opts, func(lp *livepoint.LivePoint) error {
				points = append(points, lp)
				return nil
			}); err != nil {
				t.Fatalf("%s %s: %v", name, state, err)
			}
			for _, cfg := range goldenConfigs() {
				for w, lp := range points {
					hier, bp, err := lp.Reconstruct(cfg)
					if err != nil {
						t.Fatalf("%s %s %s: %v", name, state, cfg.Name, err)
					}
					arch := functional.State{PC: lp.Arch.PC, Regs: lp.Arch.Regs}
					core := uarch.NewCore(cfg, lp.TextSource(), mem.NewOverlay(&lp.Mem), arch, hier, bp)
					for _, b := range []struct {
						name string
						n    uint64
					}{{"warm", lp.WarmLen}, {"measure", lp.UnitLen}} {
						if n := core.Run(b.n); n != b.n {
							t.Fatalf("%s %s %s window %d: %s committed %d of %d", name, state, cfg.Name, w, b.name, n, b.n)
						}
						s := core.Stat
						fmt.Fprintf(&got, "%s %s %s %d %s %d %d %d %d %d %d %d\n", name, cfg.Name, state, w, b.name,
							s.Cycles, s.Committed, s.Dispatched, s.WrongPathDisp, s.Recoveries, s.UnknownFetches, s.UnknownLoads)
					}
				}
			}
		}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("cycle drift at fixture line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
