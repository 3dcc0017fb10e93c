#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "src/chunker/chunker.h"
#include "src/chunker/rabin.h"
#include "src/crypto/sha1.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/plan_oracle.h"

namespace cyrus {
namespace {

Bytes RandomData(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

// --- Rabin fingerprint ---

TEST(RabinTest, DeterministicForSameContent) {
  const Bytes data = RandomData(1000, 1);
  EXPECT_EQ(RabinFingerprint::Of(data), RabinFingerprint::Of(data));
}

TEST(RabinTest, DifferentContentDiffers) {
  Bytes a = RandomData(1000, 1);
  Bytes b = a;
  b[999] ^= 1;
  EXPECT_NE(RabinFingerprint::Of(a), RabinFingerprint::Of(b));
}

TEST(RabinTest, WindowProperty) {
  // The fingerprint depends only on the last `window` bytes: two streams
  // with different prefixes but identical suffixes of window length agree.
  const size_t window = 16;
  Bytes suffix = RandomData(window, 7);

  RabinFingerprint a(window);
  RabinFingerprint b(window);
  for (uint8_t byte : RandomData(500, 2)) {
    a.Roll(byte);
  }
  for (uint8_t byte : RandomData(300, 3)) {
    b.Roll(byte);
  }
  uint64_t fa = 0, fb = 0;
  for (uint8_t byte : suffix) {
    fa = a.Roll(byte);
    fb = b.Roll(byte);
  }
  EXPECT_EQ(fa, fb);
}

TEST(RabinTest, ResetRestoresInitialState) {
  RabinFingerprint rf(8);
  const Bytes data = RandomData(100, 4);
  std::vector<uint64_t> first;
  for (uint8_t b : data) {
    first.push_back(rf.Roll(b));
  }
  rf.Reset();
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(rf.Roll(data[i]), first[i]);
  }
}

TEST(RabinTest, ZeroPrefixDoesNotChangeFingerprint) {
  // The window starts as zeros, so leading zero bytes keep fp == 0.
  RabinFingerprint rf(8);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(rf.Roll(0), 0u);
  }
}

// --- Chunker ---

TEST(ChunkerTest, RejectsBadOptions) {
  ChunkerOptions o = ChunkerOptions::ForTesting();
  o.modulus = 0;
  EXPECT_FALSE(Chunker::Create(o).ok());

  o = ChunkerOptions::ForTesting();
  o.residue = o.modulus;
  EXPECT_FALSE(Chunker::Create(o).ok());

  o = ChunkerOptions::ForTesting();
  o.window_size = o.min_chunk_size + 1;
  EXPECT_FALSE(Chunker::Create(o).ok());

  o = ChunkerOptions::ForTesting();
  o.min_chunk_size = o.max_chunk_size + 1;
  EXPECT_FALSE(Chunker::Create(o).ok());
}

TEST(ChunkerTest, EmptyInputYieldsNoChunks) {
  auto chunker = Chunker::Create(ChunkerOptions::ForTesting());
  ASSERT_TRUE(chunker.ok());
  EXPECT_TRUE(chunker->Split({}).empty());
}

TEST(ChunkerTest, ChunksTileTheInput) {
  auto chunker = Chunker::Create(ChunkerOptions::ForTesting());
  ASSERT_TRUE(chunker.ok());
  const Bytes data = RandomData(100 * 1024, 5);
  const auto chunks = chunker->Split(data);
  ASSERT_FALSE(chunks.empty());
  size_t expected_offset = 0;
  for (const ChunkSpan& c : chunks) {
    EXPECT_EQ(c.offset, expected_offset);
    EXPECT_GT(c.size, 0u);
    expected_offset += c.size;
  }
  EXPECT_EQ(expected_offset, data.size());
}

TEST(ChunkerTest, RespectsMinAndMaxSizes) {
  auto chunker = Chunker::Create(ChunkerOptions::ForTesting());
  ASSERT_TRUE(chunker.ok());
  const Bytes data = RandomData(200 * 1024, 6);
  const auto chunks = chunker->Split(data);
  for (size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_LE(chunks[i].size, chunker->options().max_chunk_size);
    if (i + 1 < chunks.size()) {  // the final chunk may be short
      EXPECT_GE(chunks[i].size, chunker->options().min_chunk_size);
    }
  }
}

TEST(ChunkerTest, AverageChunkSizeNearModulus) {
  ChunkerOptions o;
  o.modulus = 4096;
  o.min_chunk_size = 256;
  o.max_chunk_size = 64 * 1024;
  o.window_size = 48;
  auto chunker = Chunker::Create(o);
  ASSERT_TRUE(chunker.ok());
  const Bytes data = RandomData(2 * 1024 * 1024, 7);
  const auto chunks = chunker->Split(data);
  const double avg = static_cast<double>(data.size()) / chunks.size();
  // Content-defined chunking gives roughly exponential spacing with mean
  // ~modulus (plus the min-size offset); accept a generous band.
  EXPECT_GT(avg, o.modulus * 0.5);
  EXPECT_LT(avg, o.modulus * 2.5);
}

TEST(ChunkerTest, DeterministicSplit) {
  auto chunker = Chunker::Create(ChunkerOptions::ForTesting());
  ASSERT_TRUE(chunker.ok());
  const Bytes data = RandomData(64 * 1024, 8);
  const auto a = chunker->Split(data);
  const auto b = chunker->Split(data);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].size, b[i].size);
  }
}

TEST(ChunkerTest, LocalEditOnlyChangesNearbyChunks) {
  // The deduplication property (paper §5.1): flipping one byte must leave
  // chunk ids away from the edit untouched.
  auto chunker = Chunker::Create(ChunkerOptions::ForTesting());
  ASSERT_TRUE(chunker.ok());
  Bytes data = RandomData(256 * 1024, 9);

  auto ids = [&](const Bytes& d) {
    std::vector<Sha1Digest> out;
    for (const ChunkSpan& c : chunker->Split(d)) {
      out.push_back(Sha1::Hash(ByteSpan(d.data() + c.offset, c.size)));
    }
    return out;
  };

  const auto before = ids(data);
  data[data.size() / 2] ^= 0xFF;
  const auto after = ids(data);

  std::map<std::string, int> counts;
  for (const auto& id : before) {
    counts[id.ToHex()]++;
  }
  size_t shared = 0;
  for (const auto& id : after) {
    auto it = counts.find(id.ToHex());
    if (it != counts.end() && it->second > 0) {
      --it->second;
      ++shared;
    }
  }
  // Almost all chunks survive the edit.
  EXPECT_GE(shared + 3, after.size());
  EXPECT_GT(shared, after.size() / 2);
}

TEST(ChunkerTest, InsertionPreservesTrailingChunks) {
  auto chunker = Chunker::Create(ChunkerOptions::ForTesting());
  ASSERT_TRUE(chunker.ok());
  Bytes data = RandomData(128 * 1024, 10);

  Bytes edited = data;
  const Bytes insertion = RandomData(1000, 11);
  edited.insert(edited.begin() + 1024, insertion.begin(), insertion.end());

  auto hash_chunks = [&](const Bytes& d) {
    std::vector<std::string> out;
    for (const ChunkSpan& c : chunker->Split(d)) {
      out.push_back(Sha1::Hash(ByteSpan(d.data() + c.offset, c.size)).ToHex());
    }
    return out;
  };
  const auto before = hash_chunks(data);
  const auto after = hash_chunks(edited);

  // The suffix far beyond the insertion point re-synchronizes: the last
  // chunks of both versions coincide.
  ASSERT_GE(before.size(), 2u);
  ASSERT_GE(after.size(), 2u);
  EXPECT_EQ(before.back(), after.back());
}

TEST(ChunkerTest, MaxSizeForcedBoundaryOnConstantData) {
  // Constant data never triggers a content boundary (fp stays fixed), so
  // every chunk must be exactly max_chunk_size except the tail.
  ChunkerOptions o = ChunkerOptions::ForTesting();
  auto chunker = Chunker::Create(o);
  ASSERT_TRUE(chunker.ok());
  const Bytes data(3 * o.max_chunk_size + 17, 0xAB);
  const auto chunks = chunker->Split(data);
  ASSERT_EQ(chunks.size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(chunks[i].size, o.max_chunk_size);
  }
  EXPECT_EQ(chunks.back().size, 17u);
}

TEST(ChunkerTest, SingleByteInput) {
  auto chunker = Chunker::Create(ChunkerOptions::ForTesting());
  ASSERT_TRUE(chunker.ok());
  const Bytes data = {0x01};
  const auto chunks = chunker->Split(data);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].offset, 0u);
  EXPECT_EQ(chunks[0].size, 1u);
}

// --- Oracle: the per-byte reference split -----------------------------
//
// Chunker::Split skips bytes that cannot reach a boundary's window and
// tests boundaries with a mask. The reference below is the plain
// definition - roll every byte, reset at every boundary, test with `%` -
// and the fast split must produce byte-identical spans for it.

std::vector<ChunkSpan> ReferenceSplit(const ChunkerOptions& o, ByteSpan data) {
  std::vector<ChunkSpan> chunks;
  RabinFingerprint rf(o.window_size);
  size_t chunk_start = 0;
  size_t in_chunk = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const uint64_t fp = rf.Roll(data[i]);
    ++in_chunk;
    if ((in_chunk >= o.min_chunk_size && fp % o.modulus == o.residue) ||
        in_chunk >= o.max_chunk_size) {
      chunks.push_back(ChunkSpan{chunk_start, in_chunk});
      chunk_start = i + 1;
      in_chunk = 0;
      rf.Reset();
    }
  }
  if (in_chunk > 0) {
    chunks.push_back(ChunkSpan{chunk_start, in_chunk});
  }
  return chunks;
}

void ExpectMatchesReference(const ChunkerOptions& o, ByteSpan data, const std::string& what) {
  auto chunker = Chunker::Create(o);
  ASSERT_TRUE(chunker.ok()) << chunker.status();
  const std::vector<ChunkSpan> want = ReferenceSplit(o, data);
  const std::vector<ChunkSpan> got = chunker->Split(data);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].offset, want[i].offset) << what << " chunk " << i;
    ASSERT_EQ(got[i].size, want[i].size) << what << " chunk " << i;
  }
}

ChunkerOptions WithAverage(size_t average) {
  ChunkerOptions o;
  o.modulus = average;
  o.min_chunk_size = average / 4;
  o.max_chunk_size = average * 4;
  return o;
}

struct NamedOptions {
  std::string name;
  ChunkerOptions options;
};

std::vector<NamedOptions> OracleOptionSets() {
  std::vector<NamedOptions> sets;
  sets.push_back({"default", ChunkerOptions{}});
  sets.push_back({"for_testing", ChunkerOptions::ForTesting()});
  sets.push_back({"avg_64KiB", WithAverage(64 * 1024)});
  sets.push_back({"avg_1MiB", WithAverage(1024 * 1024)});
  ChunkerOptions odd = ChunkerOptions::ForTesting();
  odd.modulus = 1000;  // not a power of two: the `%` path
  sets.push_back({"modulus_1000", odd});
  ChunkerOptions tight_window = ChunkerOptions::ForTesting();
  tight_window.window_size = tight_window.min_chunk_size;
  sets.push_back({"window_eq_min", tight_window});
  ChunkerOptions fixed = ChunkerOptions::ForTesting();
  fixed.min_chunk_size = fixed.max_chunk_size;
  sets.push_back({"min_eq_max", fixed});
  return sets;
}

TEST(ChunkerOracleTest, EdgeLengthsMatchReference) {
  for (const NamedOptions& set : OracleOptionSets()) {
    const ChunkerOptions& o = set.options;
    const size_t lengths[] = {0,
                              1,
                              o.min_chunk_size - 1,
                              o.min_chunk_size,
                              o.min_chunk_size + 1,
                              o.max_chunk_size,
                              o.max_chunk_size + 1};
    for (size_t len : lengths) {
      const Bytes data = RandomData(len, 1000 + len);
      ExpectMatchesReference(o, data, set.name + " len " + std::to_string(len));
    }
  }
}

TEST(ChunkerOracleTest, ZerosMatchReference) {
  // Zeros never match the residue, so every chunk is forced at max size.
  // Production sizes, the small preset and the `%` path cover that.
  const Bytes zeros(40u << 20, 0);
  for (const NamedOptions& set : OracleOptionSets()) {
    if (set.name == "default" || set.name == "for_testing" || set.name == "modulus_1000") {
      ExpectMatchesReference(set.options, zeros, set.name + " zeros");
    }
  }
}

TEST(ChunkerOracleTest, RandomBuffersMatchReference) {
  const std::vector<NamedOptions> sets = OracleOptionSets();
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Bytes data = RandomData(8u << 20, 7000 + seed);
    // Every option set would cost a reference pass each; rotate through
    // them so all see random content and the default sees every seed.
    ExpectMatchesReference(ChunkerOptions{}, data, "default seed " + std::to_string(seed));
    const NamedOptions& set = sets[1 + seed % (sets.size() - 1)];
    ExpectMatchesReference(set.options, data, set.name + " seed " + std::to_string(seed));
  }
}

// --- Lane seams: CutAt from every start around one planted boundary ---
//
// The boundary scan steps Chunker::kLanes chains over blocks of
// Chunker::kBlock ends. Sweeping a chunk's start across a quiet stretch
// that ends in one boundary moves that boundary across every offset of a
// lane group: each lane's first and last end, and the seams between lanes.
// Scan ranges short enough to take only the serial remainder, and a
// boundary at the scan's limit, get a test of their own.

// The chunk the per-byte definition cuts at `start`: roll every byte from
// an empty window, test with `%`.
ChunkSpan ReferenceCut(const ChunkerOptions& o, ByteSpan data, size_t start) {
  RabinFingerprint rf(o.window_size);
  for (size_t i = start; i < data.size(); ++i) {
    const uint64_t fp = rf.Roll(data[i]);
    const size_t in_chunk = i + 1 - start;
    if ((in_chunk >= o.min_chunk_size && fp % o.modulus == o.residue) ||
        in_chunk >= o.max_chunk_size) {
      return ChunkSpan{start, in_chunk};
    }
  }
  return ChunkSpan{start, data.size() - start};
}

// Random bytes in which no window ending in [first, first + quiet) is a
// boundary, and `hit` is the first boundary end after that.
struct PlantedBoundary {
  Bytes data;
  size_t hit = 0;
};

PlantedBoundary QuietThenBoundary(const ChunkerOptions& o, size_t first, size_t quiet) {
  const size_t w = o.window_size;
  for (uint64_t seed = 1;; ++seed) {
    PlantedBoundary planted{RandomData(first + quiet + 4 * o.modulus + o.max_chunk_size,
                                       5150 + seed)};
    Bytes& data = planted.data;
    RabinFingerprint rf(w);
    auto boundary_at = [&](size_t end) {
      rf.Reset();
      for (size_t i = end - w; i < end; ++i) {
        rf.Roll(data[i]);
      }
      return rf.fingerprint() % o.modulus == o.residue;
    };
    // Redraw the newest byte of a boundary window; no earlier window
    // holds it, so the ends already passed stay quiet.
    Rng rng(seed);
    for (size_t end = first; end < first + quiet; ++end) {
      while (boundary_at(end)) {
        data[end - 1] = static_cast<uint8_t>(rng.Next());
      }
    }
    rf.Reset();
    for (size_t i = first + quiet - w; i < data.size(); ++i) {
      const uint64_t fp = rf.Roll(data[i]);
      if (i + 1 >= first + quiet && fp % o.modulus == o.residue) {
        planted.hit = i + 1;
        return planted;
      }
    }
  }
}

TEST(ChunkerOracleTest, CutAtMatchesReferenceAcrossLaneSeams) {
  constexpr size_t kGroup = Chunker::kLanes * Chunker::kBlock;
  for (const NamedOptions& set : OracleOptionSets()) {
    const ChunkerOptions& o = set.options;
    auto chunker = Chunker::Create(o);
    ASSERT_TRUE(chunker.ok()) << chunker.status();
    // The boundary lands at scan offsets 0 .. 2 * kGroup + window: every
    // offset of two groups, then the start of a third group or, where
    // max - min is shorter, the serial remainder.
    const size_t sweep = 2 * kGroup + o.window_size;
    const PlantedBoundary planted = QuietThenBoundary(o, o.min_chunk_size, sweep + 1);
    const ByteSpan data = planted.data;
    const size_t hit = planted.hit;
    for (size_t offset = 0; offset <= sweep; ++offset) {
      const size_t start = hit - o.min_chunk_size - offset;
      const size_t limit = std::min(data.size(), start + o.max_chunk_size);
      const ChunkSpan got = chunker->CutAt(data, start);
      const std::string what = set.name + " boundary at scan offset " + std::to_string(offset);
      ASSERT_EQ(got.offset, start) << what;
      ASSERT_EQ(got.offset + got.size, std::min(hit, limit)) << what;
      if (offset % 97 == 0 || offset % Chunker::kBlock <= 1 ||
          offset % Chunker::kBlock == Chunker::kBlock - 1) {
        const ChunkSpan want = ReferenceCut(o, data, start);
        ASSERT_EQ(got.size, want.size) << what;
      }
    }
  }
}

TEST(ChunkerOracleTest, CutAtMatchesReferenceOnShortScansAndHitsAtLimit) {
  constexpr size_t kBlock = Chunker::kBlock;
  constexpr size_t kGroup = Chunker::kLanes * kBlock;
  for (const NamedOptions& set : OracleOptionSets()) {
    const ChunkerOptions& o = set.options;
    auto chunker = Chunker::Create(o);
    ASSERT_TRUE(chunker.ok()) << chunker.status();
    const size_t w = o.window_size;
    const PlantedBoundary planted = QuietThenBoundary(o, o.min_chunk_size, 2 * kGroup + 2);
    // Scan ranges of `ends` ends, the last one the boundary, cut at the
    // buffer's end (the limit) one byte before the boundary, at it and one
    // byte past it. Ranges shorter than a group run only the serial
    // remainder. Each length is checked on an exact-size copy, where a
    // read past the limit leaves the allocation (caught under ASan), and
    // on a view of the longer buffer, where a scan that runs past the
    // limit finds the boundary just beyond it.
    const size_t ends_list[] = {1,          2,          w,          kBlock - 1, kBlock,
                                kBlock + 1, kGroup - 1, kGroup,     kGroup + 1, 2 * kGroup,
                                2 * kGroup + 1};
    const size_t hit = planted.hit;
    for (const size_t ends : ends_list) {
      const size_t start = hit - o.min_chunk_size - (ends - 1);
      for (const int past : {-1, 0, 1}) {
        const size_t length = hit + past;
        const Bytes copy(planted.data.begin(), planted.data.begin() + length);
        const std::string what = set.name + " " + std::to_string(ends) + " ends, length " +
                                 std::to_string(past) + " from the boundary";
        for (const ByteSpan data : {ByteSpan(copy), ByteSpan(planted.data).subspan(0, length)}) {
          const ChunkSpan got = chunker->CutAt(data, start);
          const ChunkSpan want = ReferenceCut(o, data, start);
          ASSERT_EQ(got.offset, want.offset) << what;
          ASSERT_EQ(got.size, want.size) << what;
        }
      }
    }
  }
}

// --- Parallel split: segments cut on a pool, stitched in file order ---

// The reference split of data[0, length) is the reference split of the
// whole buffer cut short at `length`: every per-byte decision depends only
// on bytes at or before it, so chunks ending by `length` are unchanged and
// the chunk spanning it becomes the tail.
std::vector<ChunkSpan> TruncatedReference(const std::vector<ChunkSpan>& reference,
                                          size_t length) {
  std::vector<ChunkSpan> chunks;
  for (const ChunkSpan& span : reference) {
    if (span.offset >= length) {
      break;
    }
    chunks.push_back(ChunkSpan{span.offset, std::min(span.size, length - span.offset)});
  }
  return chunks;
}

// A repeating pattern with at least one boundary candidate per period, the
// period shorter than min_chunk_size. A chunk started anywhere ends on the
// first candidate past its minimum, so chains started at different offsets
// land on different candidates and need not meet: a segment worker starts
// out of phase with the true chain, and stitching has to re-cut serially
// until the two line up or the segment is passed.
Bytes PeriodicData(const ChunkerOptions& o, size_t size) {
  const size_t period = std::max<size_t>(1, o.min_chunk_size * 3 / 4);
  for (uint64_t seed = 1;; ++seed) {
    const Bytes pattern = RandomData(period, 9000 + seed);
    // The fingerprint is periodic once a whole window has rolled in; scan
    // one full period from there for a candidate.
    RabinFingerprint rf(o.window_size);
    bool has_candidate = false;
    for (size_t i = 0; i < o.window_size + period && !has_candidate; ++i) {
      const uint64_t fp = rf.Roll(pattern[i % period]);
      has_candidate = i >= o.window_size && fp % o.modulus == o.residue;
    }
    if (has_candidate) {
      Bytes data(size);
      for (size_t i = 0; i < size; ++i) {
        data[i] = pattern[i % period];
      }
      return data;
    }
  }
}

void ExpectSameSpans(const std::vector<ChunkSpan>& got, const std::vector<ChunkSpan>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].offset, want[i].offset) << what << " chunk " << i;
    ASSERT_EQ(got[i].size, want[i].size) << what << " chunk " << i;
  }
}

TEST(ChunkerOracleTest, ParallelSplitMatchesReference) {
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  const std::vector<std::pair<std::string, ThreadPool*>> pools = {
      {"null pool", nullptr}, {"1 thread", &pool1}, {"2 threads", &pool2},
      {"4 threads", &pool4}};
  for (const NamedOptions& set : OracleOptionSets()) {
    const ChunkerOptions& o = set.options;
    auto chunker = Chunker::Create(o);
    ASSERT_TRUE(chunker.ok()) << chunker.status();
    // Two segments of `unit` bytes: the smallest length a 2-thread pool
    // cuts in parallel whatever max_chunk_size is.
    const size_t align = o.max_chunk_size;
    const size_t unit = (Chunker::kMinSegmentBytes + align - 1) / align * align;
    const size_t w = o.window_size;
    // Lengths at the two-segment boundary (+-1, +-window) and one that
    // gives a 4-thread pool three segments. Each split of these sizes
    // costs tens of milliseconds, so the lengths rotate across buffer
    // kinds (every set still sees all of them), and the pools that run
    // inline are checked on each kind's first length only.
    struct Case {
      std::string kind;
      std::vector<size_t> lengths;
    };
    const Case cases[] = {{"random", {2 * unit - w, 2 * unit + 1}},
                          {"zeros", {2 * unit - 1, 2 * unit + w}},
                          {"periodic", {3 * unit, 2 * unit}}};
    for (const Case& c : cases) {
      const size_t size = *std::max_element(c.lengths.begin(), c.lengths.end());
      const Bytes data = c.kind == "random"  ? RandomData(size, 4242)
                         : c.kind == "zeros" ? Bytes(size, 0)
                                             : PeriodicData(o, size);
      const std::vector<ChunkSpan> reference = ReferenceSplit(o, data);
      for (size_t length : c.lengths) {
        const ByteSpan prefix = ByteSpan(data).subspan(0, length);
        const std::string what = set.name + " " + c.kind + " len " + std::to_string(length);
        const std::vector<ChunkSpan> want = TruncatedReference(reference, length);
        ExpectSameSpans(chunker->Split(prefix), want, what + " serial");
        for (const auto& [pool_name, pool] : pools) {
          if (chunker->Segments(length, pool) > 1 || length == c.lengths.front()) {
            ExpectSameSpans(chunker->Split(prefix, pool), want, what + " " + pool_name);
          }
        }
      }
    }
    EXPECT_EQ(chunker->Segments(2 * unit, &pool2), 2u) << set.name;
    EXPECT_EQ(chunker->Segments(3 * unit, &pool4), 3u) << set.name;
  }
}

TEST(ChunkerTest, ParallelSplitMatchesSplit) {
  // The oracle above covers every option set; this one is small enough to
  // run under ThreadSanitizer: four segment tasks on four threads, two on
  // two.
  auto chunker = Chunker::Create(ChunkerOptions::ForTesting());
  ASSERT_TRUE(chunker.ok()) << chunker.status();
  const Bytes data = RandomData(4 * Chunker::kMinSegmentBytes, 77);
  const std::vector<ChunkSpan> want = chunker->Split(data);
  for (size_t threads : {2, 4}) {
    ThreadPool pool(threads);
    ASSERT_EQ(chunker->Segments(data.size(), &pool), threads);
    ExpectSameSpans(chunker->Split(data, &pool), want, std::to_string(threads) + " threads");
  }
}

TEST(ChunkerTest, SegmentsFollowPoolAndSize) {
  const ChunkerOptions o = ChunkerOptions::ForTesting();
  auto chunker = Chunker::Create(o);
  ASSERT_TRUE(chunker.ok()) << chunker.status();
  ThreadPool pool(4);
  const size_t min = Chunker::kMinSegmentBytes;
  EXPECT_EQ(chunker->Segments(64 * min, nullptr), 1u);
  EXPECT_EQ(chunker->Segments(0, &pool), 1u);
  EXPECT_EQ(chunker->Segments(2 * min - 1, &pool), 1u);
  EXPECT_EQ(chunker->Segments(2 * min, &pool), 2u);
  EXPECT_EQ(chunker->Segments(64 * min, &pool), 4u);
  // Segment starts are multiples of max_chunk_size: with a maximum as
  // large as the content, there is a single segment.
  ChunkerOptions huge_max = o;
  huge_max.max_chunk_size = 64 * min;
  auto aligned = Chunker::Create(huge_max);
  ASSERT_TRUE(aligned.ok()) << aligned.status();
  EXPECT_EQ(aligned->Segments(64 * min, &pool), 1u);
}

// --- Planner: Put's chunks, adopted from a parent where unchanged ---

// What the planner must yield is ReferencePlan (tests/plan_oracle.h).

struct Planned {
  std::vector<PlannedChunk> chunks;
  Sha1Digest content_id;  // ComputeContentId(chunks)
  size_t adopted = 0;
  uint64_t cut_bytes = 0;
};

Planned Plan(const Chunker& chunker, ByteSpan data, std::vector<PlannedChunk> parent,
             ThreadPool* pool = nullptr) {
  ChunkPlanner planner(chunker, data, pool, std::move(parent));
  Planned out;
  out.chunks = planner.Plan();
  out.content_id = ComputeContentId(out.chunks);
  out.adopted = planner.adopted_chunks();
  out.cut_bytes = planner.cut_bytes();
  return out;
}

void ExpectSamePlan(const std::vector<PlannedChunk>& got,
                    const std::vector<PlannedChunk>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].span.offset, want[i].span.offset) << what << " chunk " << i;
    ASSERT_EQ(got[i].span.size, want[i].span.size) << what << " chunk " << i;
    ASSERT_EQ(got[i].id, want[i].id) << what << " chunk " << i;
  }
}

// One random edit of `data`, aimed at the seams of its chunks `plan` about
// half the time. Returns a description for failure messages.
std::string RandomEdit(Rng& rng, const ChunkerOptions& o, const std::vector<PlannedChunk>& plan,
                       Bytes& data) {
  auto random_bytes = [&](size_t n) {
    Bytes bytes(n);
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.Next());
    }
    return bytes;
  };
  // A position near a seam (a chunk start, or the end), or anywhere.
  auto position = [&]() -> size_t {
    if (!plan.empty() && rng.NextBelow(2) == 0) {
      const ChunkSpan& span = plan[rng.NextBelow(plan.size())].span;
      const size_t seam = rng.NextBelow(2) == 0 ? span.offset : span.offset + span.size;
      const size_t jitter = rng.NextBelow(3);
      return std::min(data.size(), rng.NextBelow(2) == 0 ? seam + jitter
                                                         : seam - std::min(seam, jitter));
    }
    return rng.NextBelow(data.size() + 1);
  };
  const size_t small = 1 + rng.NextBelow(o.min_chunk_size);
  switch (rng.NextBelow(8)) {
    case 0: {  // in-place overwrite
      const size_t at = position();
      const Bytes bytes = random_bytes(std::min(small, data.size() - at));
      std::copy(bytes.begin(), bytes.end(), data.begin() + at);
      return "overwrite " + std::to_string(bytes.size()) + " at " + std::to_string(at);
    }
    case 1: {  // insert
      const size_t at = position();
      const Bytes bytes = random_bytes(small);
      data.insert(data.begin() + at, bytes.begin(), bytes.end());
      return "insert " + std::to_string(small) + " at " + std::to_string(at);
    }
    case 2: {  // delete
      const size_t at = position();
      const size_t n = std::min(small, data.size() - at);
      data.erase(data.begin() + at, data.begin() + at + n);
      return "delete " + std::to_string(n) + " at " + std::to_string(at);
    }
    case 3: {  // append, often after a last chunk cut short of the minimum
      if (rng.NextBelow(2) == 0 && plan.size() > 1) {
        const ChunkSpan& span = plan[rng.NextBelow(plan.size())].span;
        data.resize(std::min(data.size(), span.offset + 1 + rng.NextBelow(o.min_chunk_size - 1)));
      }
      const Bytes bytes = random_bytes(small);
      data.insert(data.end(), bytes.begin(), bytes.end());
      return "append " + std::to_string(small) + " to " + std::to_string(data.size() - small);
    }
    case 4: {  // truncate
      const size_t at = position();
      data.resize(at);
      return "truncate at " + std::to_string(at);
    }
    case 5: {  // remove a boundary: change the byte a cut was found on
      if (plan.size() < 2) {
        return "no-op";
      }
      const ChunkSpan& span = plan[rng.NextBelow(plan.size() - 1)].span;
      data[span.offset + span.size - 1] ^= 0x5a;
      return "unmark the cut at " + std::to_string(span.offset + span.size);
    }
    case 6: {  // create a boundary: copy a cut's window into another chunk
      if (plan.size() < 3) {
        return "no-op";
      }
      const ChunkSpan& from = plan[rng.NextBelow(plan.size() - 1)].span;
      const ChunkSpan& into = plan[rng.NextBelow(plan.size())].span;
      if (from.size < o.window_size || into.size < o.min_chunk_size) {
        return "no-op";
      }
      const size_t src = from.offset + from.size - o.window_size;
      const size_t dst = into.offset + rng.NextBelow(into.size - o.window_size + 1);
      const Bytes window(data.begin() + src, data.begin() + src + o.window_size);
      std::copy(window.begin(), window.end(), data.begin() + dst);
      return "mark a cut at " + std::to_string(dst + o.window_size);
    }
    default: {  // repeat a chunk elsewhere in the file
      if (plan.empty()) {
        return "no-op";
      }
      const ChunkSpan& span = plan[rng.NextBelow(plan.size())].span;
      const Bytes chunk(data.begin() + span.offset, data.begin() + span.offset + span.size);
      const size_t at = plan[rng.NextBelow(plan.size())].span.offset;
      data.insert(data.begin() + at, chunk.begin(), chunk.end());
      return "repeat chunk at " + std::to_string(span.offset) + " at " + std::to_string(at);
    }
  }
}

TEST(ChunkerOracleTest, PlannerMatchesSplitOnRandomEditScripts) {
  for (const NamedOptions& set : OracleOptionSets()) {
    if (set.options.max_chunk_size > 64 * 1024) {
      continue;  // the scripts need many chunks per small buffer
    }
    const ChunkerOptions& o = set.options;
    auto chunker = Chunker::Create(o);
    ASSERT_TRUE(chunker.ok()) << chunker.status();
    size_t adopted = 0;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
      Rng rng(seed * 7919 + o.modulus);
      Bytes data = RandomData(8 * o.max_chunk_size + rng.NextBelow(o.max_chunk_size), seed);
      std::vector<PlannedChunk> parent = ReferencePlan(*chunker, data);
      std::string script;
      for (int step = 0; step < 8; ++step) {
        const std::string edit = RandomEdit(rng, o, parent, data);
        script += "; " + edit;
        const std::string what = set.name + " seed " + std::to_string(seed) + script;
        const std::vector<PlannedChunk> want = ReferencePlan(*chunker, data);
        const Planned got = Plan(*chunker, data, parent);
        // An adopted plan names the bytes as a fresh one does.
        EXPECT_EQ(got.content_id, ReferenceContentId(want)) << what;
        EXPECT_EQ(Plan(*chunker, data, {}).content_id, got.content_id) << what;
        ExpectSamePlan(got.chunks, want, what);
        adopted += got.adopted;
        parent = want;
      }
    }
    EXPECT_GT(adopted, 0u) << set.name;
  }
}

TEST(ChunkerOracleTest, PlannerMatchesSplitFromAnyParent) {
  // The planner never trusts the parent beyond a hash match and the
  // last-chunk rule: a parent of unrelated content, of the same content cut
  // short, or listing one chunk over and over still yields Split's chunks.
  const ChunkerOptions o = ChunkerOptions::ForTesting();
  auto chunker = Chunker::Create(o);
  ASSERT_TRUE(chunker.ok()) << chunker.status();
  const Bytes data = RandomData(40 * 1024, 31);
  const std::vector<PlannedChunk> want = ReferencePlan(*chunker, data);
  const Bytes other = RandomData(40 * 1024, 32);
  const std::vector<PlannedChunk> unrelated = ReferencePlan(*chunker, other);
  ExpectSamePlan(Plan(*chunker, data, unrelated).chunks, want, "unrelated parent");
  for (size_t length : {want[3].span.offset, want[3].span.offset + 1, data.size() - 1}) {
    const std::vector<PlannedChunk> prefix =
        ReferencePlan(*chunker, ByteSpan(data).subspan(0, length));
    ExpectSamePlan(Plan(*chunker, data, prefix).chunks, want,
                   "prefix parent " + std::to_string(length));
  }
  std::vector<PlannedChunk> repeated;
  for (const PlannedChunk& chunk : want) {
    repeated.push_back(PlannedChunk{chunk.span, want[0].id});
  }
  ExpectSamePlan(Plan(*chunker, data, repeated).chunks, want, "one id repeated");
}

TEST(ChunkerTest, PlannerAdoptsAroundAnInPlaceEdit) {
  const ChunkerOptions o = ChunkerOptions::ForTesting();
  auto chunker = Chunker::Create(o);
  ASSERT_TRUE(chunker.ok()) << chunker.status();
  Bytes data = RandomData(64 * 1024, 41);
  const std::vector<PlannedChunk> parent = ReferencePlan(*chunker, data);
  for (size_t i = 0; i < 64; ++i) {
    data[32 * 1024 + i] ^= 0xff;
  }
  const Planned got = Plan(*chunker, data, parent);
  ExpectSamePlan(got.chunks, ReferencePlan(*chunker, data), "in-place edit");
  // Only the chunks around the edit are cut.
  EXPECT_GE(got.adopted + 3, got.chunks.size());
  EXPECT_LE(got.cut_bytes, 3 * o.max_chunk_size);

  // Without a parent every chunk is cut; unchanged content adopts every
  // chunk and cuts nothing.
  const std::vector<PlannedChunk> want = ReferencePlan(*chunker, data);
  const Planned fresh = Plan(*chunker, data, {});
  EXPECT_EQ(fresh.adopted, 0u);
  EXPECT_EQ(fresh.cut_bytes, data.size());
  EXPECT_EQ(fresh.content_id, ReferenceContentId(want));
  const Planned unchanged = Plan(*chunker, data, want);
  ExpectSamePlan(unchanged.chunks, want, "unchanged");
  EXPECT_EQ(unchanged.adopted, want.size());
  EXPECT_EQ(unchanged.cut_bytes, 0u);
  EXPECT_EQ(unchanged.content_id, ReferenceContentId(want));
}

TEST(ChunkerTest, ContentIdChangesWithOneByte) {
  auto chunker = Chunker::Create(ChunkerOptions::ForTesting());
  ASSERT_TRUE(chunker.ok()) << chunker.status();
  Bytes data = RandomData(40 * 1024, 43);
  const std::vector<PlannedChunk> parent = ReferencePlan(*chunker, data);
  const Sha1Digest before = Plan(*chunker, data, {}).content_id;
  for (size_t at : {size_t{0}, parent[2].span.offset, data.size() - 1}) {
    Bytes edited = data;
    edited[at] ^= 0x01;
    const Planned got = Plan(*chunker, edited, parent);
    EXPECT_NE(got.content_id, before) << "edit at " << at;
    EXPECT_EQ(got.content_id, ReferenceContentId(ReferencePlan(*chunker, edited)))
        << "edit at " << at;
  }
  // Empty content has the id of no chunks.
  EXPECT_EQ(Plan(*chunker, ByteSpan{}, {}).content_id, ReferenceContentId({}));
}

TEST(ChunkerOracleTest, InlineLaneHashingMatchesPerChunkSha1) {
  // Inline plans hash ids in lanes both fresh (Split's ids in one
  // HashMany) and adopted (candidates kSha1Lanes at a time under the
  // current delta). Every script opens with an insertion in the middle of
  // the file, which shifts delta inside a batch, so the chunks past it are
  // adopted only once a fresh cut lines delta up again.
  ChunkerOptions defaults;
  // A window the default options cut at, planted every 64-128 KiB, keeps
  // a 2 MiB buffer at ~20 chunks where random bytes would give none.
  auto chunker = Chunker::Create(defaults);
  ASSERT_TRUE(chunker.ok()) << chunker.status();
  const Bytes probe = RandomData(defaults.max_chunk_size, 90);
  const std::vector<ChunkSpan> probe_cuts = chunker->Split(probe);
  ASSERT_GT(probe_cuts.size(), 1u);
  ASSERT_LT(probe_cuts[0].size, defaults.max_chunk_size);
  const Bytes cut_window(probe.begin() + probe_cuts[0].size - defaults.window_size,
                         probe.begin() + probe_cuts[0].size);
  auto content = [&](const ChunkerOptions& o, uint64_t seed) {
    if (o.max_chunk_size < defaults.max_chunk_size) {
      return RandomData(8 * o.max_chunk_size, seed);
    }
    Rng rng(seed);
    Bytes data = RandomData(2 << 20, seed);
    for (size_t at = 0; at + cut_window.size() <= data.size();
         at += 64 * 1024 + rng.NextBelow(64 * 1024)) {
      std::copy(cut_window.begin(), cut_window.end(), data.begin() + at);
    }
    return data;
  };
  for (const ChunkerOptions& o : {ChunkerOptions::ForTesting(), defaults}) {
    auto planner_chunker = Chunker::Create(o);
    ASSERT_TRUE(planner_chunker.ok()) << planner_chunker.status();
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      for (uint64_t script = 0; script < 10; ++script) {
        Rng rng(seed * 1000 + script);
        Bytes data = content(o, seed * 100 + script);
        std::vector<PlannedChunk> parent = ReferencePlan(*planner_chunker, data);
        ASSERT_GE(parent.size(), 2 * kSha1Lanes) << o.max_chunk_size;
        // The insertion lands inside a middle chunk.
        const ChunkSpan& middle = parent[parent.size() / 2].span;
        const size_t at = middle.offset + 1 + rng.NextBelow(middle.size - 1);
        const Bytes inserted = RandomData(1 + rng.NextBelow(o.min_chunk_size), seed + script);
        data.insert(data.begin() + at, inserted.begin(), inserted.end());
        std::string what = "max " + std::to_string(o.max_chunk_size) + " seed " +
                           std::to_string(seed) + " script " + std::to_string(script) +
                           ": insert " + std::to_string(inserted.size()) + " at " +
                           std::to_string(at);
        for (int step = 0; step < 4; ++step) {
          if (step > 0) {
            what += "; " + RandomEdit(rng, o, parent, data);
          }
          const std::vector<PlannedChunk> want = ReferencePlan(*planner_chunker, data);
          const Planned got = Plan(*planner_chunker, data, parent);
          ExpectSamePlan(got.chunks, want, what);
          EXPECT_EQ(got.content_id, ReferenceContentId(want)) << what;
          ExpectSamePlan(Plan(*planner_chunker, data, {}).chunks, want, what + " (fresh)");
          if (step == 0) {
            // Only the chunks around the insertion are cut: the ones past
            // it were adopted under the moved delta.
            EXPECT_GE(got.adopted + 4, got.chunks.size()) << what;
          }
          parent = want;
        }
      }
    }
  }
}

TEST(ChunkerTest, PooledPlannerMatchesSplitAndCutsInFull) {
  // Content above the segment threshold is cut on the pool whatever the
  // parent; small enough to run under ThreadSanitizer.
  auto chunker = Chunker::Create(ChunkerOptions::ForTesting());
  ASSERT_TRUE(chunker.ok()) << chunker.status();
  const Bytes data = RandomData(2 * Chunker::kMinSegmentBytes, 51);
  const std::vector<PlannedChunk> want = ReferencePlan(*chunker, data);
  ThreadPool pool(2);
  ASSERT_EQ(chunker->Segments(data.size(), &pool), 2u);
  const Planned got = Plan(*chunker, data, want, &pool);
  ExpectSamePlan(got.chunks, want, "pooled");
  EXPECT_EQ(got.adopted, 0u);
  EXPECT_EQ(got.cut_bytes, data.size());
  // Pooled, inline-fresh and inline-adopted plans name the same bytes alike.
  EXPECT_EQ(got.content_id, ReferenceContentId(want));
  EXPECT_EQ(Plan(*chunker, data, {}).content_id, got.content_id);
  EXPECT_EQ(Plan(*chunker, data, want).content_id, got.content_id);
}

TEST(ChunkerTest, PooledPlannerIdsMatchPerChunkSha1) {
  // The pooled planner hashes ids in strided multi-lane groups. Small
  // enough to run under ThreadSanitizer.
  ThreadPool pool(2);
  auto ids_match = [&](const ChunkerOptions& options, size_t size, uint64_t seed,
                       size_t min_chunks, size_t max_chunks) {
    auto chunker = Chunker::Create(options);
    ASSERT_TRUE(chunker.ok()) << chunker.status();
    const Bytes data = RandomData(size, seed);
    ASSERT_EQ(chunker->Segments(data.size(), &pool), 2u);
    const Planned got = Plan(*chunker, data, {}, &pool);
    ASSERT_GE(got.chunks.size(), min_chunks);
    ASSERT_LE(got.chunks.size(), max_chunks);
    for (size_t i = 0; i < got.chunks.size(); ++i) {
      const ChunkSpan& span = got.chunks[i].span;
      ASSERT_EQ(got.chunks[i].id, Sha1::Hash(ByteSpan(data).subspan(span.offset, span.size)))
          << "chunk " << i << " of " << got.chunks.size();
    }
  };
  // Thousands of chunks: two groups, each far above kSha1Lanes, with
  // lengths from min to max so lanes refill at every step.
  ids_match(ChunkerOptions::ForTesting(), 2 * Chunker::kMinSegmentBytes, 61, 16 * kSha1Lanes,
            SIZE_MAX);
  // Two chunks: one group under kSha1MinLanes, hashed single-stream.
  ChunkerOptions two = ChunkerOptions::ForTesting();
  two.min_chunk_size = two.max_chunk_size = Chunker::kMinSegmentBytes;
  ids_match(two, 2 * Chunker::kMinSegmentBytes, 62, 2, 2);
  // Ten equal chunks and an 8-byte tail: one group of eleven. The first
  // eight lanes finish together, two long chunks refill, and the group
  // ends with two busy lanes on the single-stream path.
  ChunkerOptions eleven = two;
  eleven.min_chunk_size = eleven.max_chunk_size = Chunker::kMinSegmentBytes / 5;
  ids_match(eleven, 2 * Chunker::kMinSegmentBytes, 63, 11, 11);
}

TEST(RabinTest, ExpireAndAppendComposeToRoll) {
  const size_t window = 48;
  RabinFingerprint rf(window);
  const Bytes data = RandomData(1000, 12);
  uint64_t fp = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const uint8_t oldest = i >= window ? data[i - window] : 0;
    fp = rf.Append(rf.Expire(fp, oldest), data[i]);
    ASSERT_EQ(rf.Roll(data[i]), fp) << "byte " << i;
  }
}

}  // namespace
}  // namespace cyrus
