package livepoint_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"livepoints/internal/bpred"
	"livepoints/internal/cache"
	"livepoints/internal/csr"
	"livepoints/internal/livepoint"
	"livepoints/internal/lpstore"
	"livepoints/internal/uarch"
)

// legacyLib is a v2 library written before set records were delta-coded:
// every recorded block is the fixed 17-byte layout. It was made with
// `lpgen -bench syn.gzip -scale 0.01 -points 4` (8-way maxima, 5 points).
const legacyLib = "testdata/legacy-gzip.lplib"

// Pinned 8-way RunFile estimate over legacyLib.
const (
	legacyN        = 5
	legacyMeanBits = 0x3fea3d70a3d70a3e
)

// TestLegacyLibraryReads checks that libraries already on disk keep
// reading without migration: each legacy point decodes, re-encodes in the
// compact layout, and decodes back to an equal point; and the estimate
// over the file matches its pin bit for bit.
func TestLegacyLibraryReads(t *testing.T) {
	st, err := lpstore.Open(legacyLib)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < st.Count(); i++ {
		blob, err := st.PointBlob(i)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := livepoint.Decode(blob)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		re, _ := livepoint.Encode(lp)
		if bytes.Equal(re, blob) {
			t.Errorf("point %d re-encodes byte-identical to the legacy layout", i)
		}
		back, err := livepoint.Decode(re)
		if err != nil {
			t.Fatalf("point %d re-encoded: %v", i, err)
		}
		if !reflect.DeepEqual(lp, back) {
			t.Errorf("point %d changed across the legacy -> compact round trip", i)
		}
	}

	res, err := livepoint.RunFile(legacyLib, livepoint.RunOpts{Cfg: uarch.Config8Way()})
	if err != nil {
		t.Fatal(err)
	}
	if n, bits := res.Est.N(), math.Float64bits(res.Est.Mean()); n != legacyN || bits != legacyMeanBits {
		t.Fatalf("legacy estimate N=%d mean bits %#x, pinned N=%d bits %#x", n, bits, legacyN, uint64(legacyMeanBits))
	}
}

// smallPoint is a hand-built live-point with a few entries in every
// section, a compact fuzzing seed that mutates quickly.
func smallPoint() *livepoint.LivePoint {
	lp := &livepoint.LivePoint{Benchmark: "syn.fuzz", Index: 3, Position: 40000, WarmLen: 2000, UnitLen: 1000}
	lp.Arch.PC = 0x1000
	lp.Arch.Regs[1] = 7
	lp.Mem.Set(0x2000, 11)
	lp.Mem.Set(0x2008, 12)
	for _, name := range []string{"L1I", "L1D"} {
		sr := &csr.SetRecord{Cfg: cache.Config{Name: name, SizeBytes: 1024, Assoc: 2, LineBytes: 32, HitLat: 1}}
		for i := 0; i < 9; i++ {
			sr.Entries = append(sr.Entries, csr.Entry{Block: 0x80 + uint64(i), Last: 300 + uint64(i)*40, Dirty: i%4 == 0})
		}
		lp.Caches = append(lp.Caches, sr)
	}
	lp.TLBs = append(lp.TLBs, &csr.SetRecord{Cfg: cache.Config{Name: "DTLB", SizeBytes: 1 << 16, Assoc: 4, LineBytes: 4096, HitLat: 1},
		Entries: []csr.Entry{{Block: 2, Last: 9}}})
	lp.Preds = append(lp.Preds, livepoint.PredSnapshot{Cfg: bpred.Config{Name: "bp", TableSize: 4, BTBSets: 1, BTBAssoc: 1, RASSize: 1}, Data: []byte{1, 2, 3}})
	return lp
}

// FuzzDecodeInto feeds DecodeInto corrupt and hostile blobs, seeded with
// compact points and with legacy points from legacyLib. A blob must either
// be rejected or decode to a point whose re-encoding decodes equal; it
// must never panic, and no set record may claim more entries than the
// blob could hold.
func FuzzDecodeInto(f *testing.F) {
	small, _ := livepoint.Encode(smallPoint())
	f.Add(small)
	st, err := lpstore.Open(legacyLib)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		blob, err := st.PointBlob(i)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		lp, err := livepoint.Decode(blob)
		if err != nil {
			f.Fatal(err)
		}
		compact, _ := livepoint.Encode(lp)
		f.Add(compact)
	}
	st.Close()

	f.Fuzz(func(t *testing.T, blob []byte) {
		var lp livepoint.LivePoint
		if err := livepoint.DecodeInto(&lp, blob); err != nil {
			return
		}
		for _, srs := range [][]*csr.SetRecord{lp.Caches, lp.TLBs} {
			for _, sr := range srs {
				if len(sr.Entries) > len(blob)/2 {
					t.Fatalf("%s: %d entries from a %d-byte blob", sr.Cfg.Name, len(sr.Entries), len(blob))
				}
			}
		}
		re, _ := livepoint.Encode(&lp)
		back, err := livepoint.Decode(re)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(&lp, back) {
			t.Fatalf("re-encoding decodes differently")
		}
	})
}
