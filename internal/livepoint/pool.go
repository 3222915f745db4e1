package livepoint

import (
	"bufio"
	"compress/gzip"
	"io"
	"sync"
)

// Pools for the load path's fixed-cost objects. The paper's load-time
// claim (§5, Table 2) only holds if loading a point costs decompression
// and decode work, not allocator and GC work; everything here exists to
// keep the steady-state per-point heap traffic at zero.

// gzipReaders serves the v1 streaming reader only; v2 shards inflate
// through lpstore.Gunzip, which pools its own decoders.
var gzipReaders sync.Pool

// acquireGzipReader returns a decompressor reset over r, reusing a pooled
// gzip.Reader when one is available. Pair with releaseGzipReader.
func acquireGzipReader(r io.Reader) (*gzip.Reader, error) {
	var gz *gzip.Reader
	if v := gzipReaders.Get(); v != nil {
		mGzipPoolHits.Inc()
		gz = v.(*gzip.Reader)
	} else {
		mGzipPoolMisses.Inc()
		gz = new(gzip.Reader)
	}
	if err := gz.Reset(r); err != nil {
		gzipReaders.Put(gz)
		return nil, err
	}
	return gz, nil
}

// releaseGzipReader returns gz to the pool. The caller must not touch gz
// afterwards. Releasing mid-stream is fine: Reset discards any state.
func releaseGzipReader(gz *gzip.Reader) {
	if gz != nil {
		gzipReaders.Put(gz)
	}
}

const streamBufSize = 1 << 20

var bufReaders sync.Pool

func acquireBufReader(r io.Reader) *bufio.Reader {
	if v := bufReaders.Get(); v != nil {
		mBufioPoolHits.Inc()
		br := v.(*bufio.Reader)
		br.Reset(r)
		return br
	}
	mBufioPoolMisses.Inc()
	return bufio.NewReaderSize(r, streamBufSize)
}

func releaseBufReader(br *bufio.Reader) {
	if br != nil {
		br.Reset(nil) // drop the underlying reader so the pool pins no stream
		bufReaders.Put(br)
	}
}

var livePoints sync.Pool

// acquireLivePoint returns a LivePoint whose backing storage carries over
// from earlier decodes, so DecodeInto into it is allocation-free once the
// pool is warm.
func acquireLivePoint() *LivePoint {
	if v := livePoints.Get(); v != nil {
		mPointPoolHits.Inc()
		return v.(*LivePoint)
	}
	mPointPoolMisses.Inc()
	return &LivePoint{}
}

func releaseLivePoint(lp *LivePoint) {
	if lp != nil {
		livePoints.Put(lp)
	}
}
