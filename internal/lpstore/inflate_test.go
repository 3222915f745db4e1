package lpstore

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
	"math/rand"
	"path/filepath"
	"testing"

	"livepoints/internal/livepoint"
)

// errPastLimit marks a member the reference gave up on.
var errPastLimit = errors.New("member inflates past the test limit")

// stdGunzip is the reference: compress/gzip reading exactly one member,
// which must end the input. It gives up with errPastLimit on members
// that inflate past limit, so fuzzed bombs cannot stall the suite.
func stdGunzip(src []byte, limit int) ([]byte, error) {
	br := bytes.NewReader(src)
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, err
	}
	zr.Multistream(false)
	out, err := io.ReadAll(io.LimitReader(zr, int64(limit)+1))
	if len(out) > limit {
		return nil, errPastLimit
	}
	if err == nil && br.Len() != 0 {
		err = io.ErrShortBuffer // bytes after the member
	}
	return out, err
}

// checkGunzip asserts Gunzip's contract on src against compress/gzip: an
// error exactly when the reference errors, the same bytes otherwise, an
// error for any other dst length, and never a write outside dst.
func checkGunzip(t testing.TB, src []byte) {
	t.Helper()
	const limit = 4 << 20
	want, werr := stdGunzip(src, limit)
	if werr == errPastLimit {
		t.Skip(werr)
	}
	sizes := []int{len(want)}
	if werr == nil {
		sizes = append(sizes, len(want)+1)
		if len(want) > 0 {
			sizes = append(sizes, len(want)-1)
		}
	} else if len(src) >= 4 {
		if isize := int(binary.LittleEndian.Uint32(src[len(src)-4:])); isize <= limit {
			sizes = append(sizes, isize)
		}
	}
	for i, n := range sizes {
		const guard = 32
		buf := bytes.Repeat([]byte{0xA5}, n+2*guard)
		dst := buf[guard : guard+n : guard+n]
		err := Gunzip(dst, src)
		if !bytes.Equal(buf[:guard], bytes.Repeat([]byte{0xA5}, guard)) ||
			!bytes.Equal(buf[guard+n:], bytes.Repeat([]byte{0xA5}, guard)) {
			t.Fatalf("Gunzip wrote outside its %d-byte dst", n)
		}
		switch {
		case i == 0 && werr == nil && err != nil:
			t.Fatalf("compress/gzip accepts the member (%d bytes), Gunzip fails: %v", len(want), err)
		case i == 0 && werr == nil && !bytes.Equal(dst, want):
			t.Fatal("Gunzip and compress/gzip inflate to different bytes")
		case (i > 0 || werr != nil) && err == nil:
			t.Fatalf("Gunzip accepts the member into %d bytes; compress/gzip gives %d bytes, error %v", n, len(want), werr)
		}
	}
}

// gzipMember compresses data at level with compress/gzip.
func gzipMember(t testing.TB, data []byte, level int, hdr gzip.Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	zw.Header = hdr
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// inflateCorpus is data that exercises every block type and match shape:
// incompressible bytes (stored blocks at level 0, literal-heavy dynamic
// blocks otherwise), short runs (overlapping matches), long-distance
// repeats and a few tiny inputs (fixed blocks).
func inflateCorpus() [][]byte {
	rng := rand.New(rand.NewSource(0x1F8B))
	random := make([]byte, 70000) // more than one 64 KB stored block
	rng.Read(random)
	runs := make([]byte, 50000)
	for i := range runs {
		runs[i] = byte(i / 700)
	}
	repeats := make([]byte, 120000)
	for i := range repeats {
		if i > 40000 && rng.Intn(8) > 0 {
			repeats[i] = repeats[i-1-rng.Intn(32768)]
		} else {
			repeats[i] = byte(rng.Intn(16))
		}
	}
	return [][]byte{nil, {'x'}, []byte("abcabcabcabcabcabc"), random, runs, repeats}
}

func TestGunzipMatchesCompressGzip(t *testing.T) {
	for _, data := range inflateCorpus() {
		for level := gzip.HuffmanOnly; level <= gzip.BestCompression; level++ {
			src := gzipMember(t, data, level, gzip.Header{})
			dst := make([]byte, len(data))
			if err := Gunzip(dst, src); err != nil {
				t.Fatalf("level %d, %d bytes: %v", level, len(data), err)
			}
			if !bytes.Equal(dst, data) {
				t.Fatalf("level %d, %d bytes: wrong output", level, len(data))
			}
			checkGunzip(t, src)
		}
	}
}

// TestGunzipCorruptMembers damages members every way a disk or a network
// can and checks Gunzip's verdict against compress/gzip's.
func TestGunzipCorruptMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := inflateCorpus()[5][:20000]
	for _, level := range []int{gzip.NoCompression, gzip.BestSpeed, gzip.DefaultCompression} {
		src := gzipMember(t, data, level, gzip.Header{})
		for n := 0; n < len(src); n += 1 + n/16 {
			checkGunzip(t, src[:n]) // truncated
		}
		checkGunzip(t, append(append([]byte(nil), src...), 0))             // trailing byte
		checkGunzip(t, append(append([]byte(nil), src...), src...))        // a second member
		checkGunzip(t, append(append([]byte(nil), src...), 0x1f, 0x8b, 8)) // a torn second member
		for i := 0; i < 300; i++ {
			bad := append([]byte(nil), src...)
			bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
			checkGunzip(t, bad)
		}
	}
}

func TestGunzipHeaderFields(t *testing.T) {
	data := []byte("header fields precede the deflate stream")
	src := gzipMember(t, data, gzip.BestSpeed, gzip.Header{
		Name: "shard.bin", Comment: "comment", Extra: []byte{'L', 'P', 2, 0, 1, 2}})
	checkGunzip(t, src)
	if src[3] != flagExtra|flagName|flagComment {
		t.Fatalf("flags %#x, want FEXTRA|FNAME|FCOMMENT", src[3])
	}

	// FHCRC: compress/gzip never writes it, so add it by hand.
	plain := gzipMember(t, data, gzip.BestSpeed, gzip.Header{Name: "n"})
	hdrLen, err := gzipHeader(plain)
	if err != nil {
		t.Fatal(err)
	}
	withCRC := append([]byte(nil), plain[:hdrLen]...)
	withCRC[3] |= flagHdrCRC
	withCRC = binary.LittleEndian.AppendUint16(withCRC, uint16(crc32.ChecksumIEEE(withCRC)))
	withCRC = append(withCRC, plain[hdrLen:]...)
	checkGunzip(t, withCRC)
	bad := append([]byte(nil), withCRC...)
	bad[hdrLen] ^= 1
	checkGunzip(t, bad)

	// Reserved flag bits are ignored, as compress/gzip ignores them.
	reserved := append([]byte(nil), plain...)
	reserved[3] |= 0xE0
	checkGunzip(t, reserved)

	// Names are read into a 512-byte buffer: 511 bytes and a NUL fit.
	for _, n := range []int{511, 512, 600} {
		name := bytes.Repeat([]byte{'n'}, n)
		checkGunzip(t, gzipMember(t, data, gzip.BestSpeed, gzip.Header{Name: string(name)}))
	}
}

// bitWriter packs a DEFLATE stream LSB first, for hand-built blocks that
// compress/flate never writes.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes a Huffman code, which DEFLATE packs most significant bit
// first.
func (w *bitWriter) code(c uint16, n uint) {
	w.bits(uint64(bits.Reverse16(c)>>(16-n)), n)
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.out, byte(w.acc))
	}
	return w.out
}

// canonical returns the RFC 1951 canonical codes for lens.
func canonical(lens []uint8) []uint16 {
	var count, next [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint16, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// dynamicHeader writes a final dynamic block header for the given code
// lengths. Lengths are sent with a code-length code that gives symbols
// 0-15 four bits each, so any length sequence can be written literally.
func dynamicHeader(w *bitWriter, lit, dist []uint8) {
	w.bits(1, 1) // BFINAL
	w.bits(2, 2) // dynamic
	w.bits(uint64(len(lit)-257), 5)
	w.bits(uint64(len(dist)-1), 5)
	w.bits(19-4, 4)
	for _, s := range clOrder {
		if s < 16 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	for _, l := range append(append([]uint8(nil), lit...), dist...) {
		w.code(uint16(l), 4)
	}
}

// member wraps a raw DEFLATE stream in a gzip header and a trailer for
// want, so the verdict rests on the stream alone.
func member(deflate, want []byte) []byte {
	src := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}
	src = append(src, deflate...)
	src = binary.LittleEndian.AppendUint32(src, crc32.ChecksumIEEE(want))
	return binary.LittleEndian.AppendUint32(src, uint32(len(want)))
}

// TestGunzipHandBuiltStreams pins the edge cases of code construction
// and block decoding that compress/flate never produces, against both
// compress/gzip's verdict and the expected one.
func TestGunzipHandBuiltStreams(t *testing.T) {
	lens := func(n int, set map[int]uint8) []uint8 {
		l := make([]uint8, n)
		for s, v := range set {
			l[s] = v
		}
		return l
	}
	// 'a', end of block and length-3 codes: complete (1/4 + 1/4 + 1/2).
	lit := lens(258, map[int]uint8{'a': 2, 256: 2, 257: 1})
	litCodes := canonical(lit)
	emit := func(w *bitWriter, sym int) { w.code(litCodes[sym], uint(lit[sym])) }

	cases := []struct {
		name   string
		stream func(w *bitWriter)
		want   string // expected output; "!" expects an error
	}{
		{"lone distance code of length 1", func(w *bitWriter) {
			dynamicHeader(w, lit, lens(1, map[int]uint8{0: 1}))
			emit(w, 'a')
			emit(w, 257)
			w.bits(0, 1) // distance 1
			emit(w, 256)
		}, "aaaa"},
		{"missing code of a lone distance code", func(w *bitWriter) {
			dynamicHeader(w, lit, lens(1, map[int]uint8{0: 1}))
			emit(w, 'a')
			emit(w, 257)
			w.bits(1, 1)
			emit(w, 256)
		}, "!"},
		{"empty distance code, literals only", func(w *bitWriter) {
			dynamicHeader(w, lit, lens(1, nil))
			emit(w, 'a')
			emit(w, 256)
		}, "a"},
		{"match through an empty distance code", func(w *bitWriter) {
			dynamicHeader(w, lit, lens(1, nil))
			emit(w, 'a')
			emit(w, 257)
			w.bits(0, 8)
			emit(w, 256)
		}, "!"},
		{"lone end-of-block code", func(w *bitWriter) {
			dynamicHeader(w, lens(257, map[int]uint8{256: 1}), lens(1, nil))
			w.bits(0, 1)
		}, ""},
		{"incomplete literal/length code", func(w *bitWriter) {
			dynamicHeader(w, lens(257, map[int]uint8{'a': 2, 256: 2}), lens(1, nil))
			w.code(1, 2)
		}, "!"},
		{"over-subscribed literal/length code", func(w *bitWriter) {
			dynamicHeader(w, lens(258, map[int]uint8{'a': 1, 'b': 1, 256: 1}), lens(1, nil))
			w.bits(0, 8)
		}, "!"},
		{"incomplete distance code", func(w *bitWriter) {
			dynamicHeader(w, lit, lens(2, map[int]uint8{0: 2, 1: 2}))
			emit(w, 'a')
			emit(w, 256)
		}, "!"},
		{"287 literal/length codes", func(w *bitWriter) {
			dynamicHeader(w, lens(287, map[int]uint8{256: 1, 'a': 1}), lens(1, nil))
			w.bits(0, 8)
		}, "!"},
		{"distance before the output", func(w *bitWriter) {
			w.bits(1, 1)
			w.bits(1, 2)         // fixed codes
			w.code(0b0000001, 7) // length 3 (symbol 257)
			w.code(0, 5)         // distance 1
			w.code(0b0000000, 7) // end of block
		}, "!"},
		{"fixed distance symbol 30", func(w *bitWriter) {
			w.bits(1, 1)
			w.bits(1, 2)
			w.code(0x30+'a', 8)
			w.code(0b0000001, 7)
			w.code(30, 5)
			w.code(0, 7)
		}, "!"},
		{"fixed length symbol 286", func(w *bitWriter) {
			w.bits(1, 1)
			w.bits(1, 2)
			w.code(0b11000110, 8) // symbol 286
			w.code(0, 7)
		}, "!"},
		{"stored block length check", func(w *bitWriter) {
			w.bits(1, 1)
			w.bits(0, 2)
			w.bits(0, 5)
			w.bits(1, 16)
			w.bits(0xFFFF, 16) // must be ^1
			w.bits('a', 8)
		}, "!"},
		{"empty stored block then fixed", func(w *bitWriter) {
			w.bits(0, 1)
			w.bits(0, 2)
			w.bits(0, 5)
			w.bits(0, 16)
			w.bits(0xFFFF, 16)
			w.bits(1, 1)
			w.bits(1, 2)
			w.code(0x30+'z', 8)
			w.code(0, 7)
		}, "z"},
		{"reserved block type", func(w *bitWriter) {
			w.bits(1, 1)
			w.bits(3, 2)
		}, "!"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var w bitWriter
			c.stream(&w)
			want := []byte(c.want)
			if c.want == "!" {
				want = []byte("a")
			}
			src := member(w.bytes(), want)
			checkGunzip(t, src)
			err := Gunzip(make([]byte, len(want)), src)
			if (c.want == "!") != (err != nil) {
				t.Fatalf("Gunzip error %v, want error: %v", err, c.want == "!")
			}
		})
	}
}

// storedShards returns the stored bytes of every shard of the library
// at path.
func storedShards(t testing.TB, path string) [][]byte {
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var out [][]byte
	for s := 0; s < st.NumShards(); s++ {
		r, n, err := st.ShardRaw(s)
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, n)
		if _, err := io.ReadFull(r, raw); err != nil {
			t.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

// FuzzGunzip: Gunzip errors exactly when compress/gzip (one member, then
// EOF) errors, and otherwise yields the same bytes; it never panics and
// never writes outside dst.
func FuzzGunzip(f *testing.F) {
	lib := filepath.Join(f.TempDir(), "seed.lplib")
	if _, err := Write(lib, livepoint.Meta{Benchmark: "syn.fuzz"}, synthBlobs(6, 600), WriteOpts{ShardPoints: 3}); err != nil {
		f.Fatal(err)
	}
	// The legacy fixture's shards hold real live-points in the 17-byte
	// set-record layout.
	for _, path := range []string{lib, filepath.Join("..", "livepoint", "testdata", "legacy-gzip.lplib")} {
		for _, s := range storedShards(f, path) {
			f.Add(s)
		}
	}
	corpus := inflateCorpus()
	for level := gzip.HuffmanOnly; level <= gzip.BestCompression; level++ {
		f.Add(gzipMember(f, corpus[2], level, gzip.Header{}))
		f.Add(gzipMember(f, corpus[5][:3000], level, gzip.Header{Name: "n", Comment: "c"}))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		checkGunzip(t, src)
	})
}
