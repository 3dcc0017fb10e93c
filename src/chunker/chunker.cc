#include "src/chunker/chunker.h"

#include <algorithm>

#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace cyrus {
namespace {

// Split's loop, specialised on the boundary test so the common
// power-of-two modulus compiles to a mask with no per-byte branch on it.
// Chunks start at `begin` and chain until one starts at or past `stop`;
// every cut is taken against the whole buffer, so a chunk's end depends
// only on where it starts.
template <typename AtBoundary>
void CutImpl(ByteSpan data, size_t begin, size_t stop, const ChunkerOptions& options,
             const RabinFingerprint& rabin, AtBoundary at_boundary,
             std::vector<ChunkSpan>& chunks) {
  const uint8_t* const bytes = data.data();
  const size_t size = data.size();
  const size_t window = options.window_size;
  size_t start = begin;
  while (start < stop) {
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
}

size_t End(const ChunkSpan& span) { return span.offset + span.size; }

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

void Chunker::Cut(ByteSpan data, size_t begin, size_t stop,
                  std::vector<ChunkSpan>& out) const {
  const uint64_t modulus = options_.modulus;
  const uint64_t residue = options_.residue;
  if ((modulus & (modulus - 1)) == 0) {
    const uint64_t mask = modulus - 1;
    CutImpl(data, begin, stop, options_, rabin_,
            [mask, residue](uint64_t fp) { return (fp & mask) == residue; }, out);
  } else {
    CutImpl(data, begin, stop, options_, rabin_,
            [modulus, residue](uint64_t fp) { return fp % modulus == residue; }, out);
  }
}

std::vector<ChunkSpan> Chunker::Split(ByteSpan data) const {
  std::vector<ChunkSpan> chunks;
  Cut(data, 0, data.size(), chunks);
  return chunks;
}

size_t Chunker::SegmentBytes(size_t size, const ThreadPool* pool) const {
  const size_t segments =
      pool == nullptr ? 1 : std::min(pool->num_threads(), size / kMinSegmentBytes);
  if (segments <= 1) {
    return size;
  }
  const size_t align = options_.max_chunk_size;
  return ((size + segments - 1) / segments + align - 1) / align * align;
}

size_t Chunker::Segments(size_t size, const ThreadPool* pool) const {
  const size_t segment = SegmentBytes(size, pool);
  return segment >= size ? 1 : (size + segment - 1) / segment;
}

std::vector<ChunkSpan> Chunker::Split(ByteSpan data, ThreadPool* pool) const {
  const size_t count = Segments(data.size(), pool);
  if (count <= 1) {
    return Split(data);
  }
  const size_t size = data.size();
  const size_t segment = SegmentBytes(size, pool);
  std::vector<std::vector<ChunkSpan>> segments(count);
  pool->ParallelFor(count, [&](size_t k) {
    Cut(data, k * segment, std::min(size, (k + 1) * segment), segments[k]);
  });

  // Stitch in file order. Segment 0 starts at a true cut; each later one is
  // adopted from the first of its chunk starts the true chain lands on.
  std::vector<ChunkSpan> chunks = std::move(segments[0]);
  for (size_t k = 1; k < count; ++k) {
    const std::vector<ChunkSpan>& own = segments[k];
    auto next = own.begin();
    while (End(chunks.back()) < End(own.back())) {
      const size_t frontier = End(chunks.back());
      next = std::lower_bound(next, own.end(), frontier, [](const ChunkSpan& span, size_t at) {
        return span.offset < at;
      });
      if (next != own.end() && next->offset == frontier) {
        chunks.insert(chunks.end(), next, own.end());
        break;
      }
      Cut(data, frontier, frontier + 1, chunks);
    }
  }
  return chunks;
}

}  // namespace cyrus
