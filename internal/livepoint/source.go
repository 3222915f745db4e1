package livepoint

import (
	"io"
	"os"
)

// Source supplies encoded live-point blobs to experiment runners, one blob
// per point in the library's read order. Implementations include the
// sequential v1 single-stream file (this package), the random-access
// sharded v2 store (internal/lpstore), and the remote streaming client
// (internal/lpserve).
type Source interface {
	// Meta describes the library behind the source.
	Meta() Meta
	// NextBlob returns the next encoded live-point, or io.EOF after the
	// last.
	//
	// Ownership: the returned slice is only guaranteed valid until the
	// next NextBlob call on the same source — implementations may reuse
	// the buffer. Callers that retain a blob (or hand it to another
	// goroutine) must copy it first. DecodeInto never retains the blob,
	// so decode-then-recycle needs no copy.
	NextBlob() ([]byte, error)
	// Close releases the source's resources. A source need not be drained
	// before closing.
	Close() error
}

// ShardedSource is a Source whose points live in independently decodable
// shards. Parallel runners pull from per-shard sub-sources so workers
// decompress concurrently instead of funnelling through one stream.
type ShardedSource interface {
	Source
	// NumShards returns the number of shards.
	NumShards() int
	// OpenShard returns an independent source over shard s's points, in
	// the library's read order restricted to that shard. Shard sources
	// from the same parent are safe to drive from different goroutines.
	OpenShard(s int) (Source, error)
}

// NewBlobSource returns a Source over already-loaded blobs, yielded in
// order under meta: a cluster lease's fetched points, or one fetched
// shard of a remote library.
func NewBlobSource(meta Meta, blobs [][]byte) Source {
	return &blobSource{meta: meta, blobs: blobs}
}

type blobSource struct {
	meta  Meta
	blobs [][]byte
}

func (s *blobSource) Meta() Meta { return s.meta }

func (s *blobSource) NextBlob() ([]byte, error) {
	if len(s.blobs) == 0 {
		return nil, io.EOF
	}
	b := s.blobs[0]
	s.blobs = s.blobs[1:]
	return b, nil
}

func (s *blobSource) Close() error {
	s.blobs = nil
	return nil
}

// OpenerFunc inspects a library file. When it recognizes the format it
// returns an open Source with ok=true; ok=false declines the file and
// lets the next opener (ultimately the sequential v1 reader) try.
type OpenerFunc func(path string) (src Source, ok bool, err error)

// formatOpeners is consulted by OpenSource in registration order. All
// registration happens from package init functions, so reads need no lock.
var formatOpeners []OpenerFunc

// RegisterFormat adds a library-format opener. It is intended to be called
// from an init function, the way image formats self-register: importing
// internal/lpstore teaches OpenSource the sharded v2 format without this
// package depending on it.
func RegisterFormat(fn OpenerFunc) { formatOpeners = append(formatOpeners, fn) }

// OpenSource opens a library file as a Source, auto-detecting the format:
// registered openers first, then the sequential v1 stream.
func OpenSource(path string) (Source, error) {
	for _, fn := range formatOpeners {
		src, ok, err := fn(path)
		if err != nil {
			return nil, err
		}
		if ok {
			return src, nil
		}
	}
	return openFileSource(path)
}

// fileSource adapts the sequential v1 single-stream Reader to Source.
type fileSource struct {
	f *os.File
	r *Reader
}

func openFileSource(path string) (*fileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileSource{f: f, r: r}, nil
}

func (s *fileSource) Meta() Meta                { return s.r.Meta }
func (s *fileSource) NextBlob() ([]byte, error) { return s.r.NextBlob() }

// Close closes the decompressor before the file: on a fully drained
// stream the reader's Close verifies the gzip CRC trailer, so corruption
// there fails the run instead of vanishing with the file handle.
func (s *fileSource) Close() error {
	rerr := s.r.Close()
	ferr := s.f.Close()
	if rerr != nil {
		return rerr
	}
	return ferr
}
