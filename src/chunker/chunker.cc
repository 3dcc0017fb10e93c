#include "src/chunker/chunker.h"

#include <algorithm>

#include "src/util/strings.h"

namespace cyrus {
namespace {

// Split's loop, specialised on the boundary test so the common
// power-of-two modulus compiles to a mask with no per-byte branch on it.
template <typename AtBoundary>
std::vector<ChunkSpan> SplitImpl(ByteSpan data, const ChunkerOptions& options,
                                 const RabinFingerprint& rabin, AtBoundary at_boundary) {
  std::vector<ChunkSpan> chunks;
  const uint8_t* const bytes = data.data();
  const size_t size = data.size();
  const size_t window = options.window_size;
  size_t start = 0;
  while (start < size) {
    if (size - start <= options.min_chunk_size) {
      chunks.push_back(ChunkSpan{start, size - start});
      break;
    }
    // A boundary may first fall after byte start + min - 1, whose window
    // begins `window` bytes earlier; the window resets at every boundary
    // (chunk identity depends only on the chunk's own content, which is
    // what lets two files sharing a middle section produce identical chunk
    // ids there), so bytes before that cannot reach the fingerprint.
    const size_t first_end = start + options.min_chunk_size;
    uint64_t fp = 0;
    for (size_t i = first_end - window; i < first_end; ++i) {
      fp = rabin.Append(fp, bytes[i]);
    }
    const size_t limit = std::min(size, start + options.max_chunk_size);
    size_t end = limit;
    if (at_boundary(fp)) {
      end = first_end;
    } else {
      for (size_t i = first_end; i < limit; ++i) {
        fp = rabin.Append(rabin.Expire(fp, bytes[i - window]), bytes[i]);
        if (at_boundary(fp)) {
          end = i + 1;
          break;
        }
      }
    }
    chunks.push_back(ChunkSpan{start, end - start});
    start = end;
  }
  return chunks;
}

}  // namespace

Result<Chunker> Chunker::Create(const ChunkerOptions& options) {
  if (options.modulus == 0) {
    return InvalidArgumentError("chunker modulus must be positive");
  }
  if (options.residue >= options.modulus) {
    return InvalidArgumentError("chunker residue must be < modulus");
  }
  if (options.window_size == 0 || options.window_size > options.min_chunk_size) {
    return InvalidArgumentError(
        StrCat("window size ", options.window_size, " must be in (0, min_chunk_size]"));
  }
  if (options.min_chunk_size > options.max_chunk_size) {
    return InvalidArgumentError("min_chunk_size must be <= max_chunk_size");
  }
  return Chunker(options);
}

std::vector<ChunkSpan> Chunker::Split(ByteSpan data) const {
  const uint64_t modulus = options_.modulus;
  const uint64_t residue = options_.residue;
  if ((modulus & (modulus - 1)) == 0) {
    const uint64_t mask = modulus - 1;
    return SplitImpl(data, options_, rabin_,
                     [mask, residue](uint64_t fp) { return (fp & mask) == residue; });
  }
  return SplitImpl(data, options_, rabin_,
                   [modulus, residue](uint64_t fp) { return fp % modulus == residue; });
}

}  // namespace cyrus
