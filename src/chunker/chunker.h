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
#ifndef SRC_CHUNKER_CHUNKER_H_
#define SRC_CHUNKER_CHUNKER_H_

#include <cstdint>
#include <vector>

#include "src/chunker/rabin.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace cyrus {

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

  // Splits `data` into consecutive chunks covering the whole buffer.
  // An empty input yields no chunks.
  std::vector<ChunkSpan> Split(ByteSpan data) const;

  const ChunkerOptions& options() const { return options_; }

 private:
  explicit Chunker(const ChunkerOptions& options)
      : options_(options), rabin_(options.window_size) {}

  ChunkerOptions options_;
  RabinFingerprint rabin_;  // only its tables are used; Split is const
};

}  // namespace cyrus

#endif  // SRC_CHUNKER_CHUNKER_H_
