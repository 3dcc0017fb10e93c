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
// The scan for a chunk's end runs several fingerprint chains at once, since
// one chain is bound by the latency of its table lookups (each byte waits
// on the previous byte's). This is exact for the same reason the skip is:
// the fingerprint is fully reduced mod P, so the fingerprint at end e is a
// function of the window bytes [e - window, e) alone, whichever byte the
// scan started from. A chunk's search range [start + min, limit] therefore
// splits into blocks of kBlock ends that are scanned as independent chains.
// The range is taken kLanes blocks (one group) at a time: each lane warms
// its own window from the `window` bytes before its block, the lanes step
// together, and one OR of their boundary tests per step looks for a hit.
// Hits are rare (one per `modulus` bytes); on one, the earliest hit in
// block order is the cut, which may mean finishing an earlier lane's block
// alone. Ends past the last whole group are scanned serially. The warm-ups
// cost window / kBlock of a byte per end.
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
//
// ChunkPlanner is Put's prefix: each chunk's span and id (the SHA-1 of its
// bytes), always exactly Split's spans. It plans every chunk before the first
// upload, since the file's content id is derived from the whole list
// (ComputeContentId). Without a parent, the content is Split and every id
// hashed with Sha1::HashMany; above the segment threshold both run on the pool.
// Given the chunks of the version being replaced, it adopts them instead of
// cutting: walking the new content from offset 0 with a running length change
// delta, at each true cut c it hashes the bytes [c, c+s) of the parent chunk
// (p, s, id) starting at p = c - delta, if any. A hash equal to id adopts the
// chunk, unless it was the parent's last chunk and c+s is not the new end (that
// chunk ended at the parent's EOF, not at a Rabin cut). Anything else cuts one
// chunk with Rabin from c (reusing the hash when the cut has size s), and a
// freshly cut chunk whose id is a parent chunk's resets delta to line the two
// up. Adoption is exact by the same reset: a non-last chunk's end depends only
// on its own bytes, so equal bytes from a true cut end at the same place. delta
// is only a hint; a wrong one costs a hash, never a wrong cut. The parent's
// chunks must have been cut with the same options, which the caller vouches
// for.
//
// The candidates are hashed kSha1Lanes at a time: at c, the parent chunks
// from p on are mapped through delta and hashed with one HashMany, and the
// batch answers for them while delta holds. A delta change discards at most
// the rest of one batch (up to seven single-stream hashes where HashMany is
// a loop of Hash).
#ifndef SRC_CHUNKER_CHUNKER_H_
#define SRC_CHUNKER_CHUNKER_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/chunker/rabin.h"
#include "src/crypto/sha1.h"
#include "src/obs/trace.h"
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

  // The boundary scan's lanes (see the header comment): a chunk's search
  // range is scanned kLanes blocks of kBlock ends at a time.
  static constexpr size_t kLanes = 4;
  static constexpr size_t kBlock = 1024;

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

  // The chunk Split(data) cuts at `start`, given that one of its chunks
  // starts there.
  ChunkSpan CutAt(ByteSpan data, size_t start) const;

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

// A chunk and its id, the SHA-1 of its bytes.
struct PlannedChunk {
  ChunkSpan span;
  Sha1Digest id;
};

// The content id (FileVersion::content_id) of a file cut into `chunks`, in
// file order: the SHA-1 of "cyrus-content-v1" followed by each chunk's
// size (u64 little-endian) and id. Chunk ids are the SHA-1s of the chunk
// bytes, so this names the bytes as surely as a whole-file SHA-1 for a
// given chunker; the same bytes cut with other chunker options get another
// id. Clients sharing a namespace must therefore use the same
// ChunkerOptions: otherwise identical Puts onto one parent get two version
// ids, and sync reports them as a conflict. A deleted file's marker has the
// id of no chunks.
Sha1Digest ComputeContentId(std::span<const PlannedChunk> chunks);

// Plans one Put's chunks (see the header comment). Not thread-safe; the
// pooled path runs its own tasks on the pool.
class ChunkPlanner {
 public:
  // `parent` is the replaced version's chunks in file order, or empty. The
  // planner adopts from it only for content split inline; content above
  // the segment threshold is cut on the pool in full. `trace` (nullable)
  // receives the stage spans, each carrying the bytes it scanned:
  // "chunking" for Split or for each Rabin cut of one chunk, and
  // "hash_chunks" for the ids of Split's chunks, for each batch of
  // adoption candidates and for each fresh cut.
  ChunkPlanner(const Chunker& chunker, ByteSpan content, ThreadPool* pool,
               std::vector<PlannedChunk> parent = {}, obs::TraceBuilder* trace = nullptr);

  // Every chunk in file order. Call once. Without a parent, Split's ids
  // are hashed with Sha1::HashMany: inline in one call, pooled by at most
  // one task per pool thread, each over every k-th chunk and, where there
  // are that many, at least kSha1Lanes of them. With one, the candidates
  // are hashed in batches and each fresh cut on its own.
  std::vector<PlannedChunk> Plan();

  // Chunks taken from the parent without a Rabin cut.
  size_t adopted_chunks() const { return adopted_; }
  // Bytes of the chunks Rabin cut (the whole content without a parent).
  uint64_t cut_bytes() const { return cut_bytes_; }

 private:
  obs::ScopedSpan Span(const char* name, uint64_t bytes);
  // Split's chunks, each id hashed in lanes.
  std::vector<PlannedChunk> SplitAndHash();
  // The walk that adopts parent chunks where unchanged.
  std::vector<PlannedChunk> Adopt();
  Sha1Digest HashChunk(ChunkSpan span);
  // Parent chunks from index `first` on, at most kSha1Lanes, mapped through
  // the current delta while they fit the content, each with the SHA-1 of
  // the bytes it maps to. The first must fit.
  std::vector<PlannedChunk> HashCandidates(size_t first);
  // The parent chunk expected to start at `offset` under the current
  // delta, or null.
  const PlannedChunk* ParentAt(size_t offset) const;
  // After a fresh cut: if `chunk`'s id is a parent chunk's, lines delta up
  // so the next cut maps to the end of the nearest such chunk.
  void Resync(const PlannedChunk& chunk);

  const Chunker& chunker_;
  const ByteSpan content_;
  obs::TraceBuilder* const trace_;
  ThreadPool* const pool_;  // null when the content is split inline
  const std::vector<PlannedChunk> parent_;
  // Each parent chunk's (id, end offset), sorted; built at the first
  // fresh cut.
  std::vector<std::pair<Sha1Digest, int64_t>> parent_ends_by_id_;
  int64_t delta_ = 0;  // new offset minus parent offset at the frontier
  size_t adopted_ = 0;
  uint64_t cut_bytes_ = 0;
};

}  // namespace cyrus

#endif  // SRC_CHUNKER_CHUNKER_H_
