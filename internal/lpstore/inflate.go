package lpstore

import (
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
)

// Gunzip inflates src, which must be exactly one gzip member (RFC 1952
// header, RFC 1951 blocks, CRC-32 and ISIZE trailer), into dst. It fails
// unless the member inflates to exactly len(dst) bytes, the trailer
// matches them, and no byte follows the trailer. It accepts exactly the
// members compress/gzip accepts with Multistream(false) when the reader
// must then be at EOF, and yields the same bytes; errors reuse that
// package's values (gzip.ErrHeader, gzip.ErrChecksum,
// flate.CorruptInputError, io.ErrUnexpectedEOF). It never writes outside
// dst; after an error, dst's contents are unspecified.
//
// Shards are read whole and their inflated size is known from the index,
// so unlike compress/gzip it needs no reader, no window and no per-block
// allocation: it decodes straight from src into dst through a 64-bit bit
// buffer with table-driven Huffman decoding, and matches are copied
// within dst.
func Gunzip(dst, src []byte) error {
	p, err := gzipHeader(src)
	if err != nil {
		return err
	}
	if len(src)-p < 8 {
		return io.ErrUnexpectedEOF
	}
	d := inflaters.Get().(*inflater)
	n, err := d.inflate(dst, src[p:len(src)-8])
	d.in = nil
	inflaters.Put(d)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return errShortMember
	}
	trailer := src[len(src)-8:]
	if binary.LittleEndian.Uint32(trailer) != crc32.ChecksumIEEE(dst) ||
		binary.LittleEndian.Uint32(trailer[4:]) != uint32(n) {
		return gzip.ErrChecksum
	}
	return nil
}

var (
	errShortMember = errors.New("lpstore: gzip member inflates to fewer bytes than expected")
	errLongMember  = errors.New("lpstore: gzip member inflates to more bytes than expected")
)

// gzip header flags (RFC 1952 §2.3.1). Like compress/gzip, the reserved
// bits are ignored.
const (
	flagHdrCRC  = 1 << 1
	flagExtra   = 1 << 2
	flagName    = 1 << 3
	flagComment = 1 << 4
)

// gzipHeader returns the length of src's gzip member header.
func gzipHeader(src []byte) (int, error) {
	if len(src) < 10 {
		return 0, io.ErrUnexpectedEOF
	}
	if src[0] != 0x1f || src[1] != 0x8b || src[2] != 8 {
		return 0, gzip.ErrHeader
	}
	flg, p := src[3], 10
	if flg&flagExtra != 0 {
		if len(src)-p < 2 {
			return 0, io.ErrUnexpectedEOF
		}
		p += 2 + int(binary.LittleEndian.Uint16(src[p:]))
		if p > len(src) {
			return 0, io.ErrUnexpectedEOF
		}
	}
	for _, f := range [2]byte{flagName, flagComment} {
		if flg&f == 0 {
			continue
		}
		// compress/gzip reads these zero-terminated strings into a
		// 512-byte buffer and rejects longer ones.
		i := 0
		for ; i < 512 && p+i < len(src) && src[p+i] != 0; i++ {
		}
		switch {
		case i == 512:
			return 0, gzip.ErrHeader
		case p+i == len(src):
			return 0, io.ErrUnexpectedEOF
		}
		p += i + 1
	}
	if flg&flagHdrCRC != 0 {
		if len(src)-p < 2 {
			return 0, io.ErrUnexpectedEOF
		}
		if binary.LittleEndian.Uint16(src[p:]) != uint16(crc32.ChecksumIEEE(src[:p])) {
			return 0, gzip.ErrHeader
		}
		p += 2
	}
	return p, nil
}

// Decode-table entries. Bits 0-3 hold the code bits consumed at this
// table level; bits 4-7 the extra bits that follow (length and distance
// codes) or a subtable's index width; bits 8-15 the kind; bits 16-31 the
// literal byte, length or distance base, code-length symbol, or subtable
// offset. An entry with no kind bit is not a code of the stream.
const (
	entLiteral = 1 << 8
	entLength  = 1 << 9
	entEnd     = 1 << 10
	entSub     = 1 << 11
	entSymbol  = 1 << 12 // distance or code-length symbol

	litBits  = 10 // primary lit/len table index width
	distBits = 8
	clBits   = 7

	// Primary table plus the largest subtables any complete code can
	// need (zlib's "enough 288 10 15" and "enough 32 8 15").
	litEnough  = 1334
	distEnough = 402
)

// Per-symbol entry templates, less the code length.
var litSyms, distSyms, clSyms = symbolTemplates()

// Fixed-code tables (RFC 1951 §3.2.6). Lit/len symbols 286-287 and
// distance symbols 30-31 have codes but are invalid.
var fixedLit, fixedDist = fixedTables()

func symbolTemplates() (lit [288]uint32, dist [32]uint32, cl [19]uint32) {
	for i := 0; i < 256; i++ {
		lit[i] = entLiteral | uint32(i)<<16
	}
	lit[256] = entEnd
	base := uint32(3)
	for i := 257; i < 285; i++ {
		extra := uint32(0)
		if i >= 265 {
			extra = uint32(i-261) / 4
		}
		lit[i] = entLength | base<<16 | extra<<4
		base += 1 << extra
	}
	lit[285] = entLength | 258<<16
	base = 1
	for i := 0; i < 30; i++ {
		extra := uint32(0)
		if i >= 4 {
			extra = uint32(i-2) / 2
		}
		dist[i] = entSymbol | base<<16 | extra<<4
		base += 1 << extra
	}
	for i := range cl {
		cl[i] = entSymbol | uint32(i)<<16
	}
	return lit, dist, cl
}

func fixedTables() (lit *[litEnough]uint32, dist *[distEnough]uint32) {
	var lens [288]uint8
	for i := range lens {
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	lit, dist = new([litEnough]uint32), new([distEnough]uint32)
	buildTable(lit[:], litBits, lens[:], litSyms[:])
	for i := range lens[:32] {
		lens[i] = 5
	}
	buildTable(dist[:], distBits, lens[:32], distSyms[:])
	return lit, dist
}

// buildTable fills t with the decode table for the code lengths lens
// (RFC 1951 §3.2.2): a primary table indexed by the next pbits input
// bits, followed by subtables for longer codes. It reports false for an
// over-subscribed or incomplete code; like compress/flate (and zlib) it
// accepts a lone code of length 1, and a code with no lengths at all,
// whose missing codes decode as errors.
func buildTable(t []uint32, pbits uint, lens []uint8, syms []uint32) bool {
	var count [16]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	maxLen := 15
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	left := 1
	for l := 1; l <= 15; l++ {
		if left = left<<1 - count[l]; left < 0 {
			return false
		}
	}
	if left > 0 {
		if maxLen > 1 || count[1] > 1 {
			return false
		}
		clear(t[:1<<pbits])
	}

	// Symbols sorted by code length, then value: canonical code order.
	var offs [16]int
	for l := 1; l < 15; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [288]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}

	mask := 1<<pbits - 1
	next := 1 << pbits // next free subtable slot
	sub, subBits, prefix := 0, uint(0), -1
	code, i := 0, 0
	for l := 1; l <= maxLen; l++ {
		for ; count[l] > 0; count[l]-- {
			e := syms[sorted[i]]
			i++
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			code++
			if uint(l) <= pbits {
				e |= uint32(l)
				for j := rev; j <= mask; j += 1 << l {
					t[j] = e
				}
				continue
			}
			if rev&mask != prefix {
				// A new subtable, just big enough for the codes that share
				// this prefix: the code is complete, so they fill it.
				prefix, sub = rev&mask, next
				subBits = uint(l) - pbits
				for room := 1 << subBits; int(subBits+pbits) < maxLen; {
					if room -= count[subBits+pbits]; room <= 0 {
						break
					}
					subBits++
					room <<= 1
				}
				if next += 1 << subBits; next > len(t) {
					return false
				}
				t[prefix] = entSub | uint32(sub)<<16 | uint32(subBits)<<4 | uint32(pbits)
			}
			n := uint(l) - pbits
			e |= uint32(n)
			for j := rev >> pbits; j < 1<<subBits; j += 1 << n {
				t[sub+j] = e
			}
		}
		code <<= 1
	}
	return true
}

// inflater decodes one DEFLATE stream. Decoders are pooled so their
// tables are reused, not rebuilt into fresh memory per block.
type inflater struct {
	in    []byte
	pos   int    // next byte of in to load; runs past len(in) by zero padding
	bits  uint64 // bit buffer, LSB first; bits above nbits are input or zero
	nbits uint

	lit  [litEnough]uint32
	dist [distEnough]uint32
	cl   [1 << clBits]uint32
	lens [286 + 30]uint8
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

var clOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// inflate decodes the DEFLATE stream in into out and returns the number
// of bytes written. The stream must end in the last byte of in.
func (d *inflater) inflate(out, in []byte) (int, error) {
	d.in, d.pos, d.bits, d.nbits = in, 0, 0, 0
	op := 0
	for final := false; !final; {
		if d.nbits < 3 && !d.refill() {
			return op, io.ErrUnexpectedEOF
		}
		hdr := d.bits
		d.bits >>= 3
		d.nbits -= 3
		final = hdr&1 != 0
		var err error
		switch hdr >> 1 & 3 {
		case 0:
			op, err = d.stored(out, op)
		case 1:
			op, err = d.huffman(out, op, fixedLit, fixedDist)
		case 2:
			if err = d.dynamic(); err == nil {
				op, err = d.huffman(out, op, &d.lit, &d.dist)
			}
		default:
			err = d.corrupt()
		}
		if err != nil {
			return op, err
		}
	}
	switch used := d.pos*8 - int(d.nbits); {
	case used > len(in)*8:
		return op, io.ErrUnexpectedEOF
	case (used+7)/8 < len(in):
		// compress/gzip would read the trailer from here and then find
		// bytes after it.
		return op, gzip.ErrChecksum
	}
	return op, nil
}

func (d *inflater) corrupt() error {
	return flate.CorruptInputError(min(d.pos, len(d.in)))
}

// refill tops the bit buffer up to at least 56 bits: a whole word at a
// time while 8 input bytes remain, then byte by byte, padding with zero
// bytes past the end of the input. It fails once a padding bit has been
// consumed, which means the stream needed more input than it has.
func (d *inflater) refill() bool {
	if d.pos+8 <= len(d.in) {
		d.bits |= binary.LittleEndian.Uint64(d.in[d.pos:]) << d.nbits
		d.pos += int((63 - d.nbits) >> 3)
		d.nbits |= 56
		return true
	}
	if d.pos*8-int(d.nbits) > len(d.in)*8 {
		return false
	}
	for ; d.nbits <= 56; d.nbits += 8 {
		if d.pos < len(d.in) {
			d.bits |= uint64(d.in[d.pos]) << d.nbits
		}
		d.pos++
	}
	return true
}

// stored copies a stored block (RFC 1951 §3.2.4).
func (d *inflater) stored(out []byte, op int) (int, error) {
	// Skip to the byte boundary and give whole buffered bytes back.
	d.pos -= int(d.nbits >> 3)
	d.bits, d.nbits = 0, 0
	if d.pos > len(d.in)-4 {
		return op, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(d.in[d.pos:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(d.in[d.pos+2:]) {
		return op, d.corrupt()
	}
	d.pos += 4
	if n > len(d.in)-d.pos {
		return op, io.ErrUnexpectedEOF
	}
	if n > len(out)-op {
		return op, errLongMember
	}
	op += copy(out[op:], d.in[d.pos:d.pos+n])
	d.pos += n
	return op, nil
}

// dynamic reads a dynamic block's code definitions (RFC 1951 §3.2.7)
// into d.lit and d.dist.
func (d *inflater) dynamic() error {
	if d.nbits < 14 && !d.refill() {
		return io.ErrUnexpectedEOF
	}
	nlit := int(d.bits&31) + 257
	ndist := int(d.bits>>5&31) + 1
	nclen := int(d.bits>>10&15) + 4
	d.bits >>= 14
	d.nbits -= 14
	if nlit > 286 || ndist > 30 {
		return d.corrupt()
	}
	var clens [19]uint8
	for _, s := range clOrder[:nclen] {
		if d.nbits < 3 && !d.refill() {
			return io.ErrUnexpectedEOF
		}
		clens[s] = uint8(d.bits & 7)
		d.bits >>= 3
		d.nbits -= 3
	}
	if !buildTable(d.cl[:], clBits, clens[:], clSyms[:]) {
		return d.corrupt()
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if d.nbits < 14 && !d.refill() { // a 7-bit code, then up to 7 extra bits
			return io.ErrUnexpectedEOF
		}
		e := d.cl[d.bits&(1<<clBits-1)]
		if e&entSymbol == 0 {
			return d.corrupt()
		}
		d.bits >>= e & 15
		d.nbits -= uint(e & 15)
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		// 16 repeats the previous length 3-6 times; 17 and 18 repeat a
		// zero 3-10 and 11-138 times.
		var val uint8
		if sym == 16 {
			if i == 0 {
				return d.corrupt()
			}
			val = lens[i-1]
		}
		x := [3]uint{2, 3, 7}[sym-16]
		rep := [3]int{3, 3, 11}[sym-16] + int(d.bits&(1<<x-1))
		d.bits >>= x
		d.nbits -= x
		if rep > len(lens)-i {
			return d.corrupt()
		}
		for ; rep > 0; rep-- {
			lens[i] = val
			i++
		}
	}
	if !buildTable(d.lit[:], litBits, lens[:nlit], litSyms[:]) ||
		!buildTable(d.dist[:], distBits, lens[nlit:], distSyms[:]) {
		return d.corrupt()
	}
	return nil
}

// huffman decodes one Huffman-coded block into out from op up to its end
// code. This is the hot loop: the bit buffer lives in locals, and one
// refill (at least 56 bits) covers either the longest length/distance
// pair (15+5+15+13 bits) or four literals with primary-table codes.
func (d *inflater) huffman(out []byte, op int, lt *[litEnough]uint32, dt *[distEnough]uint32) (int, error) {
	in := d.in
	bitbuf, nbits, pos := d.bits, d.nbits, d.pos
	for {
		if pos+8 <= len(in) {
			bitbuf |= binary.LittleEndian.Uint64(in[pos:]) << nbits
			pos += int((63 - nbits) >> 3)
			nbits |= 56
		} else {
			d.bits, d.nbits, d.pos = bitbuf, nbits, pos
			if !d.refill() {
				return op, io.ErrUnexpectedEOF
			}
			bitbuf, nbits, pos = d.bits, d.nbits, d.pos
		}

		e := lt[bitbuf&(1<<litBits-1)]
		if e&entLiteral != 0 && len(out)-op >= 4 {
			out[op] = byte(e >> 16)
			op++
			bitbuf >>= e & 15
			nbits -= uint(e & 15)
			if e = lt[bitbuf&(1<<litBits-1)]; e&entLiteral == 0 {
				continue
			}
			out[op] = byte(e >> 16)
			op++
			bitbuf >>= e & 15
			nbits -= uint(e & 15)
			if e = lt[bitbuf&(1<<litBits-1)]; e&entLiteral == 0 {
				continue
			}
			out[op] = byte(e >> 16)
			op++
			bitbuf >>= e & 15
			nbits -= uint(e & 15)
			if e = lt[bitbuf&(1<<litBits-1)]; e&entLiteral == 0 {
				continue
			}
			out[op] = byte(e >> 16)
			op++
			bitbuf >>= e & 15
			nbits -= uint(e & 15)
			continue
		}
		if e&entSub != 0 {
			bitbuf >>= litBits
			nbits -= litBits
			e = lt[int(e>>16)+int(bitbuf&(1<<(e>>4&15)-1))]
		}
		bitbuf >>= e & 15
		nbits -= uint(e & 15)
		switch {
		case e&entLiteral != 0:
			if uint(op) >= uint(len(out)) {
				return op, errLongMember
			}
			out[op] = byte(e >> 16)
			op++
			continue
		case e&entEnd != 0:
			d.bits, d.nbits, d.pos = bitbuf, nbits, pos
			return op, nil
		case e&entLength == 0:
			d.pos = pos
			return op, d.corrupt()
		}
		x := e >> 4 & 15
		length := int(e>>16) + int(bitbuf&(1<<x-1))
		bitbuf >>= x
		nbits -= uint(x)

		e = dt[bitbuf&(1<<distBits-1)]
		if e&entSub != 0 {
			bitbuf >>= distBits
			nbits -= distBits
			e = dt[int(e>>16)+int(bitbuf&(1<<(e>>4&15)-1))]
		}
		if e&entSymbol == 0 {
			d.pos = pos
			return op, d.corrupt()
		}
		bitbuf >>= e & 15
		nbits -= uint(e & 15)
		x = e >> 4 & 15
		dist := int(e>>16) + int(bitbuf&(1<<x-1))
		bitbuf >>= x
		nbits -= uint(x)

		if dist > op {
			d.pos = pos
			return op, d.corrupt()
		}
		if length > len(out)-op {
			return op, errLongMember
		}
		end := op + length
		if dist >= 8 && length <= 16 && len(out)-op >= 16 {
			// Short match: two word moves that may overshoot end, into
			// bytes later output overwrites.
			src := op - dist
			binary.LittleEndian.PutUint64(out[op:], binary.LittleEndian.Uint64(out[src:]))
			binary.LittleEndian.PutUint64(out[op+8:], binary.LittleEndian.Uint64(out[src+8:]))
			op = end
			continue
		}
		if dist >= length {
			op += copy(out[op:end], out[op-dist:])
			continue
		}
		// Overlapping match: each copy doubles the repeated span.
		for src := op - dist; op < end; {
			op += copy(out[op:end], out[src:op])
		}
	}
}
