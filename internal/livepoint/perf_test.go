package livepoint

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"livepoints/internal/bpred"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
)

// TestDecodeIntoSteadyStateZeroAllocs is the allocation-regression gate on
// the tentpole claim: once a reused LivePoint has seen the library's
// largest point, decoding rotates through existing backing storage and the
// steady state performs zero heap allocations per point.
func TestDecodeIntoSteadyStateZeroAllocs(t *testing.T) {
	cfg := uarch.Config8Way()
	_, _, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 40, false)
	blobs := make([][]byte, len(points))
	for i, p := range points {
		blobs[i], _ = Encode(p)
	}
	var lp LivePoint
	// Warm-up pass: grow every slice to the library maximum.
	for _, blob := range blobs {
		if err := DecodeInto(&lp, blob); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(3*len(blobs), func() {
		if err := DecodeInto(&lp, blobs[i%len(blobs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeInto allocates %.1f objects per point, want 0", allocs)
	}
}

// TestDecodeIntoReuseRoundTrip interleaves decodes of structurally
// different points (different benchmarks, sizes, and restriction) through
// one reused LivePoint and re-encodes after each: any state leaking across
// decodes would corrupt the re-encoding.
func TestDecodeIntoReuseRoundTrip(t *testing.T) {
	cfg := uarch.Config8Way()
	_, _, big := buildTestLibrary(t, "syn.gcc", 0.01, cfg, 30, false)
	_, _, small := buildTestLibrary(t, "syn.gzip", 0.005, cfg, 40, true)
	seq := []*LivePoint{big[0], small[0], big[1], small[1], big[0]}
	var lp LivePoint
	for i, p := range seq {
		blob, _ := Encode(p)
		if err := DecodeInto(&lp, blob); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		re, _ := Encode(&lp)
		if !bytes.Equal(re, blob) {
			t.Fatalf("decode %d into reused point did not re-encode identically (%d vs %d bytes)", i, len(re), len(blob))
		}
	}
}

// TestArenaSimulateBitEqual pins the arena contract: reusing hierarchy,
// predictor, text, overlay, CPU and core across points must be
// bit-identical to building them fresh, including the restricted-live-state
// garbage fill. Every call switches the arena to another configuration
// (8-way, 16-way, 8-way with a 48-entry RUU), so each core reset changes
// the RUU ring, fetch queue and functional-unit sizes.
func TestArenaSimulateBitEqual(t *testing.T) {
	c8, c16 := uarch.Config8Way(), uarch.Config16Way()
	c48 := c8
	c48.RUUSize = 48
	opts := CreateOpts{MaxHier: c16.Hier, Preds: []bpred.Config{c8.BP, c16.BP}}
	_, _, full := buildTestLibraryOpts(t, "syn.gcc", 0.01, c16.DetailedWarm, 40, opts)
	opts.Restricted = true
	_, _, restricted := buildTestLibraryOpts(t, "syn.gzip", 0.01, c16.DetailedWarm, 60, opts)
	var arena SimArena
	points := append(append([]*LivePoint{}, full...), restricted...)
	for i, p := range points {
		for _, cfg := range []uarch.Config{c8, c16, c48} {
			want, err := Simulate(p, cfg)
			if err != nil {
				t.Fatalf("point %d %s: %v", i, cfg.Name, err)
			}
			got, err := arena.Simulate(p, cfg)
			if err != nil {
				t.Fatalf("point %d %s (arena): %v", i, cfg.Name, err)
			}
			if got != want {
				t.Fatalf("point %d %s: arena CPI %.17g stats %+v != fresh CPI %.17g stats %+v",
					i, cfg.Name, got.UnitCPI, got.Stats, want.UnitCPI, want.Stats)
			}
		}
	}
}

// TestArenaSimulateReusesState checks the arena actually removes the
// per-point fixed allocations rather than silently regressing to the
// allocating path.
func TestArenaSimulateReusesState(t *testing.T) {
	cfg := uarch.Config8Way()
	_, _, points := buildTestLibrary(t, "syn.gzip", 0.005, cfg, 40, false)
	p := points[0]
	fresh := testing.AllocsPerRun(3, func() {
		if _, err := Simulate(p, cfg); err != nil {
			t.Fatal(err)
		}
	})
	var arena SimArena
	if _, err := arena.Simulate(p, cfg); err != nil {
		t.Fatal(err)
	}
	reused := testing.AllocsPerRun(3, func() {
		if _, err := arena.Simulate(p, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if reused > fresh/2 {
		t.Fatalf("arena Simulate allocates %.0f objects per point vs %.0f fresh; arena reuse is not working", reused, fresh)
	}
	t.Logf("allocations per point: fresh %.0f, arena %.0f", fresh, reused)
}

// TestSerialEstimateMatchesSimBlobs: the serial runner and the cluster
// worker kernel process points in the same deterministic order, so their
// estimates must agree bitwise — the cluster path is a distribution detail,
// never a numerics change.
func TestSerialEstimateMatchesSimBlobs(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.01, cfg, 20, false)
	blobs := make([][]byte, len(points))
	for i, p := range points {
		blobs[i], _ = Encode(p)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.lplib")
	meta := Meta{Benchmark: "syn.gzip", UnitLen: design.UnitLen, WarmLen: design.WarmLen, Shuffled: true}
	if _, err := WriteLibrary(path, meta, blobs); err != nil {
		t.Fatal(err)
	}
	serial, err := RunFile(path, RunOpts{Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	_, _, bres, err := SimBlobs(blobs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Est.Mean() != bres.Est.Mean() || serial.Processed != bres.Processed {
		t.Fatalf("serial mean %.17g (n=%d) != SimBlobs mean %.17g (n=%d)",
			serial.Est.Mean(), serial.Processed, bres.Est.Mean(), bres.Processed)
	}

	// Matched pairs: the serial matched runner and the lease kernel must
	// fold the same paired CPIs in the same order.
	exp := cfg
	exp.RUUSize = 48
	matched, err := RunMatchedFile(path, MatchedOpts{Base: cfg, Exp: exp})
	if err != nil {
		t.Fatal(err)
	}
	baseCPIs, expCPIs, _, err := SimBlobs(blobs, cfg, &exp)
	if err != nil {
		t.Fatal(err)
	}
	var mp sampling.MatchedPair
	for i := range baseCPIs {
		mp.Add(baseCPIs[i], expCPIs[i])
	}
	if matched.Processed != len(blobs) || len(expCPIs) != len(blobs) || matched.MP != mp {
		t.Fatalf("matched run (n=%d) %+v != lease kernel (n=%d) %+v", matched.Processed, matched.MP, len(expCPIs), mp)
	}
	if mp.Delta.Mean() == 0 {
		t.Fatal("RUU-48 pair left every CPI unchanged; the matched case compares nothing")
	}
}

// TestCloseSurfacesTrailerCorruption: gzip verifies its CRC only when the
// deflate stream is read to end-of-stream, which blob-by-blob reads never
// do on their own. Source.Close must drain and report the corruption
// instead of silently dropping it (the old fileSource.Close only closed
// the file descriptor).
func TestCloseSurfacesTrailerCorruption(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.005, cfg, 40, false)
	blobs := make([][]byte, len(points))
	for i, p := range points {
		blobs[i], _ = Encode(p)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.lplib")
	meta := Meta{Benchmark: "syn.gzip", UnitLen: design.UnitLen, WarmLen: design.WarmLen}
	if _, err := WriteLibrary(path, meta, blobs); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // corrupt the gzip trailer (ISIZE)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := src.NextBlob(); err != nil {
			if err != io.EOF {
				t.Fatalf("NextBlob: %v", err)
			}
			break
		}
	}
	if err := src.Close(); err == nil {
		t.Fatal("Close silently dropped a corrupted gzip trailer")
	}
}

// TestReadAllBlobsReturnsStableCopies: the streaming Reader reuses its
// blob buffer between NextBlob calls; ReadAllBlobs retains every blob, so
// it must hand back stable copies.
func TestReadAllBlobsReturnsStableCopies(t *testing.T) {
	cfg := uarch.Config8Way()
	_, design, points := buildTestLibrary(t, "syn.gzip", 0.005, cfg, 40, false)
	blobs := make([][]byte, len(points))
	for i, p := range points {
		blobs[i], _ = Encode(p)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.lplib")
	meta := Meta{Benchmark: "syn.gzip", UnitLen: design.UnitLen, WarmLen: design.WarmLen}
	if _, err := WriteLibrary(path, meta, blobs); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadAllBlobs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blobs) {
		t.Fatalf("read %d blobs, want %d", len(got), len(blobs))
	}
	for i := range blobs {
		if !bytes.Equal(got[i], blobs[i]) {
			t.Fatalf("blob %d was clobbered by the reader's buffer reuse", i)
		}
	}
}
