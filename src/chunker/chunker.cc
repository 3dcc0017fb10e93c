#include "src/chunker/chunker.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <optional>

#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace cyrus {
namespace {

// The fingerprint of the `window` bytes ending at `end`, from an empty
// window.
uint64_t Warm(const uint8_t* bytes, size_t end, size_t window, const RabinFingerprint& rabin) {
  uint64_t fp = 0;
  for (size_t i = end - window; i < end; ++i) {
    fp = rabin.Append(fp, bytes[i]);
  }
  return fp;
}

// Slides `fp`, the fingerprint of the window ending at `i`, one byte on.
uint64_t Slide(const uint8_t* bytes, uint64_t fp, size_t i, size_t window,
               const RabinFingerprint& rabin) {
  return rabin.Append(rabin.Expire(fp, bytes[i - window]), bytes[i]);
}

// Rolls `fp`, the fingerprint of the window ending at `end`, through the
// ends (end, last]; returns the first whose window is a boundary, or
// last + 1.
template <typename AtBoundary>
size_t RollToBoundary(const uint8_t* bytes, uint64_t fp, size_t end, size_t last,
                      size_t window, const RabinFingerprint& rabin, AtBoundary at_boundary) {
  for (size_t i = end; i < last; ++i) {
    fp = Slide(bytes, fp, i, window, rabin);
    if (at_boundary(fp)) {
      return i + 1;
    }
  }
  return last + 1;
}

// The first end e in [first, limit] whose trailing window is a boundary,
// or `limit` if none is; requires first >= window. Each group of
// kLanes * kBlock ends is scanned as kLanes chains warmed from their own
// windows (exact: see the header comment), so the table lookups of one
// chain overlap the others'. The first hit in block order wins. Ends past
// the last whole group take the serial loop.
template <typename AtBoundary>
size_t FirstEnd(const uint8_t* bytes, size_t first, size_t limit, size_t window,
                const RabinFingerprint& rabin, AtBoundary at_boundary) {
  constexpr size_t kLanes = Chunker::kLanes;
  constexpr size_t kBlock = Chunker::kBlock;
  static_assert(kLanes == 4, "the group loop steps four named lanes");
  constexpr size_t kGroup = kLanes * kBlock;
  size_t base = first;
  for (; limit + 1 - base >= kGroup; base += kGroup) {
    // Lane k's window ends at base + k * kBlock + j after step j.
    uint64_t fp0 = Warm(bytes, base, window, rabin);
    uint64_t fp1 = Warm(bytes, base + kBlock, window, rabin);
    uint64_t fp2 = Warm(bytes, base + 2 * kBlock, window, rabin);
    uint64_t fp3 = Warm(bytes, base + 3 * kBlock, window, rabin);
    bool hit = at_boundary(fp0) | at_boundary(fp1) | at_boundary(fp2) | at_boundary(fp3);
    size_t j = 0;
    while (!hit && ++j < kBlock) {
      const size_t i = base + j - 1;
      fp0 = Slide(bytes, fp0, i, window, rabin);
      fp1 = Slide(bytes, fp1, i + kBlock, window, rabin);
      fp2 = Slide(bytes, fp2, i + 2 * kBlock, window, rabin);
      fp3 = Slide(bytes, fp3, i + 3 * kBlock, window, rabin);
      hit = at_boundary(fp0) | at_boundary(fp1) | at_boundary(fp2) | at_boundary(fp3);
    }
    if (!hit) {
      continue;
    }
    // Lanes before the first that hit at step j may still hit later in
    // their own blocks, which come first in file order.
    const uint64_t fps[kLanes] = {fp0, fp1, fp2, fp3};
    for (size_t k = 0;; ++k) {
      const size_t end = base + k * kBlock + j;
      if (at_boundary(fps[k])) {
        return end;
      }
      const size_t last = base + (k + 1) * kBlock - 1;
      if (const size_t found =
              RollToBoundary(bytes, fps[k], end, last, window, rabin, at_boundary);
          found <= last) {
        return found;
      }
    }
  }
  if (base > limit) {
    return limit;
  }
  const uint64_t fp = Warm(bytes, base, window, rabin);
  if (at_boundary(fp)) {
    return base;
  }
  return std::min(limit, RollToBoundary(bytes, fp, base, limit, window, rabin, at_boundary));
}

// Split's loop, specialised on the boundary test so the common
// power-of-two modulus compiles to a mask with no per-byte branch on it.
// Chunks start at `begin` and chain until one starts at or past `stop`;
// every cut is taken against the whole buffer, so a chunk's end depends
// only on where it starts.
template <typename AtBoundary>
void CutImpl(ByteSpan data, size_t begin, size_t stop, const ChunkerOptions& options,
             const RabinFingerprint& rabin, AtBoundary at_boundary,
             std::vector<ChunkSpan>& chunks) {
  const size_t size = data.size();
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
    const size_t end =
        FirstEnd(data.data(), start + options.min_chunk_size,
                 std::min(size, start + options.max_chunk_size), options.window_size, rabin,
                 at_boundary);
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

ChunkSpan Chunker::CutAt(ByteSpan data, size_t start) const {
  std::vector<ChunkSpan> one;
  Cut(data, start, start + 1, one);
  return one.front();
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

// --- ChunkPlanner -----------------------------------------------------------

Sha1Digest ComputeContentId(std::span<const PlannedChunk> chunks) {
  Sha1 h;
  h.Update(std::string_view("cyrus-content-v1"));
  for (const PlannedChunk& chunk : chunks) {
    std::array<uint8_t, 8 + sizeof(Sha1Digest::bytes)> record;
    for (size_t i = 0; i < 8; ++i) {
      record[i] = static_cast<uint8_t>(static_cast<uint64_t>(chunk.span.size) >> (8 * i));
    }
    std::copy(chunk.id.bytes.begin(), chunk.id.bytes.end(), record.begin() + 8);
    h.Update(ByteSpan(record));
  }
  return h.Finish();
}

ChunkPlanner::ChunkPlanner(const Chunker& chunker, ByteSpan content, ThreadPool* pool,
                           std::vector<PlannedChunk> parent, obs::TraceBuilder* trace)
    : chunker_(chunker),
      content_(content),
      trace_(trace),
      pool_(chunker.Segments(content.size(), pool) > 1 ? pool : nullptr),
      parent_(pool_ == nullptr ? std::move(parent) : std::vector<PlannedChunk>{}) {}

obs::ScopedSpan ChunkPlanner::Span(const char* name, uint64_t bytes) {
  if (trace_ == nullptr) {
    return obs::ScopedSpan();
  }
  obs::ScopedSpan span = trace_->Span(name);
  span.AddBytes(bytes);
  return span;
}

Sha1Digest ChunkPlanner::HashChunk(ChunkSpan span) {
  obs::ScopedSpan traced = Span("hash_chunks", span.size);
  return Sha1::Hash(content_.subspan(span.offset, span.size));
}

std::vector<PlannedChunk> ChunkPlanner::Plan() {
  return parent_.empty() ? SplitAndHash() : Adopt();
}

std::vector<PlannedChunk> ChunkPlanner::SplitAndHash() {
  std::vector<PlannedChunk> planned;
  {
    obs::ScopedSpan traced = Span("chunking", content_.size());
    for (const ChunkSpan& span : chunker_.Split(content_, pool_)) {
      planned.push_back(PlannedChunk{span, Sha1Digest{}});
    }
  }
  cut_bytes_ = content_.size();
  obs::ScopedSpan traced = Span("hash_chunks", content_.size());
  // Pooled, one multi-lane batch per pool thread, each of at least
  // kSha1Lanes chunks. Chunk g, g + groups, ... go to group g, so every
  // group mixes the lengths of the whole file and the lanes stay busy.
  const size_t groups =
      pool_ == nullptr
          ? 1
          : std::max<size_t>(1, std::min(pool_->num_threads(), planned.size() / kSha1Lanes));
  auto hash_group = [&](size_t g) {
    std::vector<ByteSpan> chunks;
    for (size_t i = g; i < planned.size(); i += groups) {
      chunks.push_back(content_.subspan(planned[i].span.offset, planned[i].span.size));
    }
    std::vector<Sha1Digest> ids(chunks.size());
    Sha1::HashMany(chunks, ids);
    for (size_t k = 0; k < ids.size(); ++k) {
      planned[g + k * groups].id = ids[k];
    }
  };
  if (groups == 1) {
    hash_group(0);
  } else {
    pool_->ParallelFor(groups, hash_group);
  }
  return planned;
}

std::vector<PlannedChunk> ChunkPlanner::Adopt() {
  std::vector<PlannedChunk> planned;
  // batch[k] is the candidate for parent chunk first + k under the delta
  // it was hashed with; it answers until delta changes.
  std::vector<PlannedChunk> batch;
  size_t first = 0;
  int64_t batch_delta = 0;
  size_t start = 0;
  while (start < content_.size()) {
    // Adopt the parent chunk expected here when its bytes are unchanged.
    PlannedChunk candidate{};
    if (const PlannedChunk* parent = ParentAt(start);
        parent != nullptr && parent->span.size <= content_.size() - start) {
      const size_t index = static_cast<size_t>(parent - parent_.data());
      if (delta_ != batch_delta || index < first || index >= first + batch.size()) {
        batch = HashCandidates(index);
        first = index;
        batch_delta = delta_;
      }
      candidate = batch[index - first];
      const bool ends_at_eof = End(candidate.span) == content_.size();
      if (candidate.id == parent->id && (parent != &parent_.back() || ends_at_eof)) {
        ++adopted_;
        planned.push_back(candidate);
        start = End(candidate.span);
        continue;
      }
    }
    // Otherwise cut one chunk with Rabin; a cut the candidate's size
    // already has its hash.
    PlannedChunk chunk;
    {
      obs::ScopedSpan traced = Span("chunking", 0);
      chunk.span = chunker_.CutAt(content_, start);
      traced.AddBytes(chunk.span.size);
    }
    cut_bytes_ += chunk.span.size;
    chunk.id = chunk.span.size == candidate.span.size ? candidate.id : HashChunk(chunk.span);
    Resync(chunk);
    planned.push_back(chunk);
    start = End(chunk.span);
  }
  return planned;
}

std::vector<PlannedChunk> ChunkPlanner::HashCandidates(size_t first) {
  std::vector<PlannedChunk> batch;
  std::vector<ByteSpan> bytes;
  uint64_t total = 0;
  for (size_t i = first; i < parent_.size() && batch.size() < kSha1Lanes; ++i) {
    const ChunkSpan& span = parent_[i].span;
    const size_t at = static_cast<size_t>(static_cast<int64_t>(span.offset) + delta_);
    if (at > content_.size() || span.size > content_.size() - at) {
      break;
    }
    batch.push_back(PlannedChunk{ChunkSpan{at, span.size}, Sha1Digest{}});
    bytes.push_back(content_.subspan(at, span.size));
    total += span.size;
  }
  obs::ScopedSpan traced = Span("hash_chunks", total);
  std::vector<Sha1Digest> ids(bytes.size());
  Sha1::HashMany(bytes, ids);
  for (size_t k = 0; k < ids.size(); ++k) {
    batch[k].id = ids[k];
  }
  return batch;
}

const PlannedChunk* ChunkPlanner::ParentAt(size_t offset) const {
  const int64_t at = static_cast<int64_t>(offset) - delta_;
  if (at < 0) {
    return nullptr;
  }
  auto it = std::lower_bound(parent_.begin(), parent_.end(), static_cast<size_t>(at),
                             [](const PlannedChunk& chunk, size_t value) {
                               return chunk.span.offset < value;
                             });
  return it != parent_.end() && it->span.offset == static_cast<size_t>(at) ? &*it : nullptr;
}

void ChunkPlanner::Resync(const PlannedChunk& chunk) {
  if (parent_ends_by_id_.empty()) {
    parent_ends_by_id_.reserve(parent_.size());
    for (const PlannedChunk& parent : parent_) {
      parent_ends_by_id_.emplace_back(parent.id, static_cast<int64_t>(End(parent.span)));
    }
    std::sort(parent_ends_by_id_.begin(), parent_ends_by_id_.end());
  }
  // A chunk the parent repeats lines up with the copy ending nearest where
  // the current delta expects it.
  const int64_t end = static_cast<int64_t>(End(chunk.span));
  const int64_t expected = end - delta_;
  std::optional<int64_t> best;
  for (auto it = std::lower_bound(parent_ends_by_id_.begin(), parent_ends_by_id_.end(),
                                  std::make_pair(chunk.id, INT64_MIN));
       it != parent_ends_by_id_.end() && it->first == chunk.id; ++it) {
    if (!best || std::abs(it->second - expected) < std::abs(*best - expected)) {
      best = it->second;
    }
  }
  if (best) {
    delta_ = end - *best;
  }
}

}  // namespace cyrus
