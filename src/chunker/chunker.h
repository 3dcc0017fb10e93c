// Content-defined chunking (paper §5.1).
//
// A chunk boundary is declared at offset i when the Rabin fingerprint of the
// trailing window satisfies fp mod M == K for pre-defined M (which sets the
// average chunk size) and K. Because boundaries depend only on local
// content, an edit only re-chunks the neighbourhood of the change, which is
// what makes deduplication effective across file versions.
//
// Min/max bounds keep pathological content (e.g. long runs of zeros) from
// producing degenerate chunks.
//
// Split is the per-byte hot loop of every Put, so it does no division: the
// Rabin tables are built once per Chunker, the expiring byte is read from
// the input rather than a ring buffer, the boundary test is a mask when the
// modulus is a power of two, and rolling starts only window_size bytes
// before the first offset that may end a chunk. The window resets at every
// boundary, so skipped bytes cannot affect the fingerprint; boundaries are
// identical to rolling every byte.
//
// The same reset makes the next cut a function of the chunk's start alone,
// which is what lets Split(data, pool) cut a large buffer in parallel. The
// buffer is divided into segments; each pool task runs Split's loop from
// its segment's start as if a chunk began there, and stops at the first cut
// at or past the segment's end. The driver then stitches in file order:
// from the true frontier f left by the segments before, if f is one of the
// segment's chunk starts, every later cut of that segment is a true cut and
// is adopted unchanged; otherwise one chunk is cut serially from f and the
// check repeats. The result is byte-identical to Split(data) whatever the
// content; the extra work is typically a chunk or two per segment boundary
// (content whose boundary chains never meet is walked serially, as Split
// would). Segment starts are multiples of max_chunk_size, so on content with
// no boundaries at all (long zero runs) the forced max-size cuts of the true
// chain land exactly on each segment start and stitching re-cuts nothing.
#ifndef SRC_CHUNKER_CHUNKER_H_
#define SRC_CHUNKER_CHUNKER_H_

#include <cstdint>
#include <vector>

#include "src/chunker/rabin.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace cyrus {

class ThreadPool;

struct ChunkerOptions {
  size_t window_size = 48;
  // Boundary when fp % modulus == residue. The expected spacing between
  // boundaries is `modulus` bytes, so this is the average chunk size
  // (CYRUS follows Dropbox's 4 MB average; tests use smaller values).
  uint64_t modulus = 4 * 1024 * 1024;
  uint64_t residue = 0x1f;
  size_t min_chunk_size = 64 * 1024;
  size_t max_chunk_size = 16 * 1024 * 1024;

  // Small preset for unit tests and examples with little data.
  static ChunkerOptions ForTesting() {
    ChunkerOptions o;
    o.modulus = 1024;
    o.min_chunk_size = 128;
    o.max_chunk_size = 8 * 1024;
    return o;
  }
};

// A chunk described by its placement in the source buffer.
struct ChunkSpan {
  size_t offset = 0;
  size_t size = 0;
};

class Chunker {
 public:
  // Requires window <= min <= max, modulus > 0, residue < modulus.
  static Result<Chunker> Create(const ChunkerOptions& options);

  // A segment cut on the pool covers at least this many bytes, and content
  // shorter than two of them is split inline: each segment pays a fixed
  // fork-join and a re-scan of the chunk straddling its end, which a large
  // segment amortizes.
  static constexpr size_t kMinSegmentBytes = 4 * 1024 * 1024;

  // Splits `data` into consecutive chunks covering the whole buffer.
  // An empty input yields no chunks.
  std::vector<ChunkSpan> Split(ByteSpan data) const;

  // The same spans as Split(data), with the buffer's segments cut as
  // concurrent tasks on `pool` and stitched on the calling thread.
  std::vector<ChunkSpan> Split(ByteSpan data, ThreadPool* pool) const;

  // How many segments Split(data, pool) cuts for a buffer of `size` bytes:
  // min(pool threads, size / kMinSegmentBytes), fewer once segment starts
  // are rounded to multiples of max_chunk_size. 1 means it runs inline
  // (always so for a null pool).
  size_t Segments(size_t size, const ThreadPool* pool) const;

  const ChunkerOptions& options() const { return options_; }

 private:
  explicit Chunker(const ChunkerOptions& options)
      : options_(options), rabin_(options.window_size) {}

  // Bytes per segment for Split(data, pool); `size` or more when it runs
  // inline.
  size_t SegmentBytes(size_t size, const ThreadPool* pool) const;

  // Split's loop: appends to `out` the chunks of `data` that start in
  // [begin, stop), chaining from `begin` as if a chunk began there. Cuts
  // are taken against the whole buffer, so the last chunk may end past
  // `stop`.
  void Cut(ByteSpan data, size_t begin, size_t stop, std::vector<ChunkSpan>& out) const;

  ChunkerOptions options_;
  RabinFingerprint rabin_;  // only its tables are used; Split is const
};

}  // namespace cyrus

#endif  // SRC_CHUNKER_CHUNKER_H_
