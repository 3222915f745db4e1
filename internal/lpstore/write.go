package lpstore

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"

	"livepoints/internal/livepoint"
)

// CompressionLevel is the gzip level every shard is written at. At
// BestSpeed stdlib flate ends a Huffman block every 64 KB of input, where
// the default level ends one every 16K tokens; on dense set-record bytes
// that is several times fewer blocks, and every block with codes longer
// than 9 bits makes the inflater allocate link tables. Shards therefore
// inflate faster and with fewer allocations, for a library a few percent
// larger. Readers accept any level.
const CompressionLevel = gzip.BestSpeed

// WriteOpts configures v2 library writing.
type WriteOpts struct {
	// ShardPoints caps the number of points per shard (default
	// DefaultShardPoints). Smaller shards raise random-access and parallel
	// granularity; larger shards compress better.
	ShardPoints int
}

func (o WriteOpts) shardPoints() int {
	if o.ShardPoints <= 0 {
		return DefaultShardPoints
	}
	return o.ShardPoints
}

// buildImage compresses blobs into the in-memory shape of a v2 library:
// consecutive runs of ShardPoints blobs become one gzip stream each, and
// the read order is the identity (callers shuffle blobs beforehand, or
// Shuffle the index afterwards). Blob order is therefore exactly the read
// order a v1 file with the same blobs would have — migration preserves
// results bit for bit.
func buildImage(meta livepoint.Meta, blobs [][]byte, opts WriteOpts) (*Store, error) {
	meta.Count = len(blobs)
	st := &Store{meta: meta}
	per := opts.shardPoints()
	dataOff := int64(len(fileMagic))
	for start := 0; start < len(blobs); start += per {
		end := start + per
		if end > len(blobs) {
			end = len(blobs)
		}
		var comp bytes.Buffer
		gz, err := gzip.NewWriterLevel(&comp, CompressionLevel)
		if err != nil {
			return nil, err
		}
		var off int64
		for i := start; i < end; i++ {
			if _, err := gz.Write(blobs[i]); err != nil {
				return nil, fmt.Errorf("lpstore: compressing shard %d: %w", len(st.shards), err)
			}
			st.points = append(st.points, pointInfo{shard: len(st.shards), off: off, len: len(blobs[i])})
			st.order = append(st.order, uint32(i))
			off += int64(len(blobs[i]))
			st.uncompressed += int64(len(blobs[i]))
		}
		if err := gz.Close(); err != nil {
			return nil, err
		}
		st.mem = append(st.mem, comp.Bytes())
		st.shards = append(st.shards, shardInfo{
			dataOff:   dataOff,
			compLen:   int64(comp.Len()),
			uncompLen: off,
			points:    end - start,
		})
		st.noteShardSize(st.shards[len(st.shards)-1])
		dataOff += int64(comp.Len())
	}
	return st, nil
}

// Write creates a v2 library file at path from pre-encoded points, in the
// given (read) order.
func Write(path string, meta livepoint.Meta, blobs [][]byte, opts WriteOpts) (Info, error) {
	st, err := buildImage(meta, blobs, opts)
	if err != nil {
		return Info{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	if _, err := f.WriteString(fileMagic); err != nil {
		return Info{}, err
	}
	for _, shard := range st.mem {
		if _, err := f.Write(shard); err != nil {
			return Info{}, err
		}
	}
	if _, err := f.Write(appendTrailer(st.encodeIndex())); err != nil {
		return Info{}, err
	}
	if err := f.Sync(); err != nil {
		return Info{}, err
	}
	fi, err := f.Stat()
	if err != nil {
		return Info{}, err
	}
	return Info{
		Points:            len(blobs),
		Shards:            len(st.shards),
		CompressedBytes:   fi.Size(),
		UncompressedBytes: st.uncompressed,
	}, nil
}

// Migrate converts a v1 sequential library into a v2 sharded one,
// preserving metadata and read order: sequential reads of dst yield the
// same points in the same order as src, so experiment results are
// bit-equal across the migration.
func Migrate(src, dst string, opts WriteOpts) (Info, error) {
	meta, blobs, err := livepoint.ReadAllBlobs(src)
	if err != nil {
		return Info{}, fmt.Errorf("lpstore: migrating %s: %w", src, err)
	}
	return Write(dst, meta, blobs, opts)
}

// OpenAny opens a library file of either format as a Store. v2 files open
// directly; v1 files are migrated in memory — the migration reader — so
// existing .lplib libraries serve and random-access like native v2 stores
// (at the one-time cost of reading the stream on open).
func OpenAny(path string) (*Store, error) {
	v2, err := IsV2(path)
	if err != nil {
		return nil, err
	}
	if v2 {
		return Open(path)
	}
	meta, blobs, err := livepoint.ReadAllBlobs(path)
	if err != nil {
		return nil, fmt.Errorf("lpstore: opening v1 library %s: %w", path, err)
	}
	st, err := buildImage(meta, blobs, WriteOpts{})
	if err != nil {
		return nil, err
	}
	st.path = path
	return st, nil
}
