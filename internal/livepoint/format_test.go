package livepoint

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"livepoints/internal/asn1der"
	"livepoints/internal/cache"
	"livepoints/internal/csr"
)

var testRecordCfg = cache.Config{Name: "L1D", SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, HitLat: 3}

// seqEntries returns n entries with ascending blocks, distinct
// timestamps and the given dirtiness.
func seqEntries(n int, dirty func(i int) bool) []csr.Entry {
	es := make([]csr.Entry, n)
	for i := range es {
		es[i] = csr.Entry{Block: 0x4000 + uint64(i)*3, Last: 1000 + uint64(i*i)*97, Dirty: dirty(i)}
	}
	return es
}

func encodeRecord(sr *csr.SetRecord) []byte {
	b := asn1der.NewBuilder()
	encodeSetRecord(b, sr)
	return b.Bytes()
}

func decodeRecord(blob []byte) (*csr.SetRecord, error) {
	sr := &csr.SetRecord{}
	d := asn1der.Over(blob)
	return sr, decodeSetRecordInto(sr, &d)
}

// rawRecord builds a set record around a hand-made payload: the compact
// layout with the given entry count, or with count < 0 the fixed 17-byte
// layout written before it. extra elements follow the payload.
func rawRecord(count int, payload []byte, extra ...uint64) []byte {
	b := asn1der.NewBuilder()
	b.UTF8String(testRecordCfg.Name)
	b.Uint64(uint64(testRecordCfg.SizeBytes))
	b.Uint64(uint64(testRecordCfg.Assoc))
	b.Uint64(uint64(testRecordCfg.LineBytes))
	b.Uint64(uint64(testRecordCfg.HitLat))
	if count >= 0 {
		b.Uint64(uint64(count))
	}
	b.OctetString(payload)
	for _, v := range extra {
		b.Uint64(v)
	}
	return b.Bytes()
}

// legacyPayload is the 17-byte-per-entry payload of the old layout.
func legacyPayload(es []csr.Entry) []byte {
	out := make([]byte, 17*len(es))
	for i, e := range es {
		binary.LittleEndian.PutUint64(out[i*17:], e.Block)
		binary.LittleEndian.PutUint64(out[i*17+8:], e.Last)
		if e.Dirty {
			out[i*17+16] = 1
		}
	}
	return out
}

// TestSetRecordRoundTrip checks that set records survive the compact
// layout exactly (including unsorted and extreme entries), that a decoded
// record re-encodes to the same bytes, and that the same entries in the
// old 17-byte layout decode to the same record.
func TestSetRecordRoundTrip(t *testing.T) {
	never := func(int) bool { return false }
	always := func(int) bool { return true }
	odd := func(i int) bool { return i%2 == 1 }
	cases := []struct {
		name string
		es   []csr.Entry
	}{
		{"empty", nil},
		{"1", seqEntries(1, always)},
		{"7", seqEntries(7, odd)},
		{"8", seqEntries(8, odd)},
		{"9", seqEntries(9, odd)},
		{"unsorted", []csr.Entry{{Block: 90, Last: 5}, {Block: 7, Last: 1 << 40, Dirty: true}, {Block: 90 << 30, Last: 0}, {Block: 1}}},
		{"extremes", []csr.Entry{{Block: math.MaxUint64, Last: math.MaxUint64, Dirty: true}, {Block: 0, Last: 0}, {Block: math.MaxUint64, Last: 1 << 63}}},
		{"all dirty", seqEntries(17, always)},
		{"no dirty", seqEntries(17, never)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			blob := encodeRecord(&csr.SetRecord{Cfg: testRecordCfg, Entries: c.es})
			sr, err := decodeRecord(blob)
			if err != nil {
				t.Fatal(err)
			}
			if sr.Cfg != testRecordCfg || !slices.Equal(sr.Entries, c.es) {
				t.Fatalf("decoded %+v %v, want %+v %v", sr.Cfg, sr.Entries, testRecordCfg, c.es)
			}
			if re := encodeRecord(sr); !bytes.Equal(re, blob) {
				t.Fatalf("re-encoding differs:\n got %x\nwant %x", re, blob)
			}
			old, err := decodeRecord(rawRecord(-1, legacyPayload(c.es)))
			if err != nil {
				t.Fatalf("legacy layout: %v", err)
			}
			if old.Cfg != testRecordCfg || !slices.Equal(old.Entries, c.es) {
				t.Fatalf("legacy layout decoded %v, want %v", old.Entries, c.es)
			}
		})
	}
}

// TestSetRecordSortedIsCompact pins the size win the layout exists for:
// a captured (block-sorted) record takes a few bytes per entry instead
// of 17.
func TestSetRecordSortedIsCompact(t *testing.T) {
	es := seqEntries(512, func(i int) bool { return i%3 == 0 })
	for i := range es {
		es[i].Last = uint64(i) * 13 // timestamps within the last ~6.6K accesses
	}
	blob := encodeRecord(&csr.SetRecord{Cfg: testRecordCfg, Entries: es})
	if per := float64(len(blob)) / float64(len(es)); per > 4 {
		t.Fatalf("sorted record takes %.2f bytes per entry, want at most 4", per)
	}
}

// TestSetRecordRejects covers inputs the decoder must refuse, so that
// everything it accepts re-encodes byte for byte and no count can
// outrun its payload.
func TestSetRecordRejects(t *testing.T) {
	overlong := append(bytes.Repeat([]byte{0xFF}, 9), 0x02) // 2^64 and up
	tooLong := append(bytes.Repeat([]byte{0x80}, 10), 0x01) // 11 bytes
	dirtyTwo := legacyPayload(seqEntries(2, func(int) bool { return false }))
	dirtyTwo[17+16] = 2
	cases := []struct {
		name, want string
		blob       []byte
	}{
		{"count exceeds payload", "claims 3 entries", rawRecord(3, []byte{1, 1, 1, 1, 0})},
		{"huge count", "claims", rawRecord(math.MaxInt32, []byte{1, 1, 0})},
		{"truncated varint", "truncated varint", rawRecord(1, []byte{0x80, 0x80, 0x00})},
		{"non-minimal varint", "non-minimal", rawRecord(1, []byte{0x81, 0x00, 0x05, 0x00})},
		{"non-minimal last", "non-minimal", rawRecord(1, []byte{0x05, 0x85, 0x80, 0x00, 0x00})},
		{"overflowing varint", "overflows", rawRecord(1, append(append([]byte{}, overlong...), 1, 0))},
		{"eleven-byte varint", "overflows", rawRecord(1, append(append([]byte{}, tooLong...), 1, 0))},
		{"trailing byte", "stray", rawRecord(1, []byte{0x05, 0x06, 0x07, 0x00})},
		{"nonzero pad bit", "padding", rawRecord(1, []byte{0x05, 0x06, 0x02})},
		{"nonzero pad bit after a full byte", "padding", rawRecord(9, append(bytes.Repeat([]byte{1}, 18), 0xFF, 0x02))},
		{"element after payload", "trailing data", rawRecord(1, []byte{0x05, 0x06, 0x00}, 7)},
		{"legacy dirty byte", "dirty byte 2", rawRecord(-1, dirtyTwo)},
		{"legacy length", "not a multiple of 17", rawRecord(-1, make([]byte, 18))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sr, err := decodeRecord(c.blob)
			if err == nil {
				t.Fatalf("accepted, decoded %v", sr.Entries)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want it to mention %q", err, c.want)
			}
		})
	}
}
