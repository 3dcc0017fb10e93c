#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/chunker/chunker.h"
#include "src/chunker/rabin.h"
#include "src/crypto/sha1.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

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
