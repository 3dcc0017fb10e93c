#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/crypto/naming.h"
#include "src/crypto/sha1.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace cyrus {
namespace {

// --- SHA-1 known-answer tests (FIPS 180-4 / RFC 3174 vectors) ---

TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(Sha1::Hash(std::string_view("")).ToHex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(Sha1::Hash(std::string_view("abc")).ToHex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(Sha1::Hash(std::string_view(
                           "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
                .ToHex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  Sha1 h;
  const std::string block(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(block);
  }
  EXPECT_EQ(h.Finish().ToHex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, QuickBrownFox) {
  EXPECT_EQ(Sha1::Hash(std::string_view("The quick brown fox jumps over the lazy dog"))
                .ToHex(),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  const std::string text = "CYRUS scatters files into smaller pieces across CSPs";
  for (size_t split = 0; split <= text.size(); ++split) {
    Sha1 h;
    h.Update(std::string_view(text).substr(0, split));
    h.Update(std::string_view(text).substr(split));
    EXPECT_EQ(h.Finish(), Sha1::Hash(std::string_view(text))) << "split=" << split;
  }
}

TEST(Sha1Test, EmptyUpdateAfterAPartialBlockChangesNothing) {
  // ByteSpan{} has a null data pointer; appending it to a buffered partial
  // block must not hand that pointer to memcpy (UBSan reports it).
  Sha1 h;
  h.Update(std::string_view("partial"));
  h.Update(ByteSpan{});
  EXPECT_EQ(h.Finish(), Sha1::Hash(std::string_view("partial")));
}

// Exercises every padding boundary around the 64-byte block size.
TEST(Sha1Test, AllLengthsNearBlockBoundaryAreConsistent) {
  for (size_t len = 50; len <= 70; ++len) {
    const std::string msg(len, 'x');
    Sha1 a;
    a.Update(msg);
    // Byte-at-a-time must agree with one-shot.
    Sha1 b;
    for (char ch : msg) {
      b.Update(std::string_view(&ch, 1));
    }
    EXPECT_EQ(a.Finish(), b.Finish()) << "len=" << len;
  }
}

TEST(Sha1Test, Prefix64IsBigEndianPrefix) {
  Sha1Digest d;
  for (int i = 0; i < 20; ++i) {
    d.bytes[i] = static_cast<uint8_t>(i + 1);
  }
  EXPECT_EQ(d.Prefix64(), 0x0102030405060708ULL);
}

TEST(Sha1Test, DigestOrderingIsLexicographic) {
  Sha1Digest a, b;
  a.bytes[0] = 1;
  b.bytes[0] = 2;
  EXPECT_LT(a, b);
}

// --- SHA-NI vs scalar differential -------------------------------------
//
// Sha1 dispatches its compression function once per process. These cases
// pit the SHA-NI block function against the scalar one directly (no env
// var, no hook), and the dispatched incremental hasher against a one-shot
// digest built on the scalar function alone.

using BlocksFn = void (*)(uint32_t state[5], const uint8_t* blocks, size_t count);

Bytes RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

// FIPS 180-4 padding and digest serialization around a given block function.
Sha1Digest DigestWith(BlocksFn blocks, ByteSpan data) {
  uint32_t state[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  const size_t whole = data.size() / 64;
  blocks(state, data.data(), whole);
  uint8_t tail[128] = {};
  const size_t rest = data.size() - whole * 64;
  std::memcpy(tail, data.data() + whole * 64, rest);
  tail[rest] = 0x80;
  const size_t tail_len = rest < 56 ? 64 : 128;
  const uint64_t bit_len = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  blocks(state, tail, tail_len / 64);
  Sha1Digest digest;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 4; ++j) {
      digest.bytes[4 * i + j] = static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return digest;
}

#define SKIP_WITHOUT_SHA_NI()                                 \
  if (!Sha1ShaNiSupported()) {                                \
    GTEST_SKIP() << "CPU lacks the SHA extensions (SHA-NI)";  \
  }

TEST(Sha1DifferentialTest, FipsVectorsThroughBothBlockFunctions) {
  const struct {
    std::string text;
    const char* hex;
  } kVectors[] = {
      {"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
      {"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
      {std::string(1000000, 'a'), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
      {"The quick brown fox jumps over the lazy dog",
       "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"},
  };
  for (const auto& v : kVectors) {
    EXPECT_EQ(DigestWith(Sha1BlocksScalar, AsByteSpan(v.text)).ToHex(), v.hex);
    EXPECT_EQ(Sha1::Hash(std::string_view(v.text)).ToHex(), v.hex);
  }
  SKIP_WITHOUT_SHA_NI();
  for (const auto& v : kVectors) {
    EXPECT_EQ(DigestWith(Sha1BlocksShaNi, AsByteSpan(v.text)).ToHex(), v.hex);
  }
}

TEST(Sha1DifferentialTest, BlockFunctionsAgreeAtEveryLengthAndAlignment) {
  SKIP_WITHOUT_SHA_NI();
  Rng rng(0x5a1);
  const Bytes pool = RandomBytes(4096 + 64, 1);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t misalign = rng.NextBelow(64);
    const size_t count = rng.NextBelow(4096 / 64 + 1);  // 0 .. 4 KiB
    uint32_t scalar[5], shani[5];
    for (int i = 0; i < 5; ++i) {
      scalar[i] = shani[i] = static_cast<uint32_t>(rng.Next());
    }
    Sha1BlocksScalar(scalar, pool.data() + misalign, count);
    Sha1BlocksShaNi(shani, pool.data() + misalign, count);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(scalar[i], shani[i])
          << "word " << i << " count " << count << " offset " << misalign;
    }
  }
}

TEST(Sha1DifferentialTest, DigestsAgreeForRandomLengthsAndOffsets) {
  SKIP_WITHOUT_SHA_NI();
  Rng rng(0x5a2);
  const Bytes pool = RandomBytes(4096 + 64, 2);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t offset = rng.NextBelow(64);
    const size_t len = rng.NextBelow(4096 + 1);
    const ByteSpan data(pool.data() + offset, len);
    ASSERT_EQ(DigestWith(Sha1BlocksShaNi, data), DigestWith(Sha1BlocksScalar, data))
        << "len " << len << " offset " << offset;
  }
}

TEST(Sha1DifferentialTest, RandomUpdateSplitsMatchScalarOneShot) {
  Rng rng(0x5a3);
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes data = RandomBytes(rng.NextBelow(8192 + 1), 100 + trial);
    Sha1 h;
    size_t pos = 0;
    while (pos < data.size()) {
      // Mostly small pieces so partial-block buffering is exercised, with
      // the odd large one that carries many whole blocks in one call.
      const size_t piece = rng.NextBool(0.1) ? rng.NextBelow(2048) : rng.NextBelow(130);
      const size_t take = std::min(piece, data.size() - pos);
      h.Update(ByteSpan(data.data() + pos, take));
      pos += take;
    }
    ASSERT_EQ(h.Finish(), DigestWith(Sha1BlocksScalar, data)) << "trial " << trial;
  }
}

TEST(Sha1DifferentialTest, SixtyFourMebibyteBuffer) {
  const Bytes data = RandomBytes(64u << 20, 3);
  const Sha1Digest scalar = DigestWith(Sha1BlocksScalar, data);
  EXPECT_EQ(Sha1::Hash(data), scalar);
  SKIP_WITHOUT_SHA_NI();
  EXPECT_EQ(DigestWith(Sha1BlocksShaNi, data), scalar);
}

// --- Multi-lane SHA-1 vs single-stream differential --------------------
//
// HashMany must equal Hash input by input whatever the lane schedule: how
// many inputs, how long, where they start, and whether lanes share bytes.
// On a CPU without AVX-512VL it is a loop of Hash and these still hold.

#define SKIP_WITHOUT_MULTI_LANE()                                 \
  if (!Sha1MultiLaneSupported()) {                                \
    GTEST_SKIP() << "CPU lacks AVX-512F/VL (multi-lane SHA-1)";   \
  }

void ExpectHashManyMatches(const std::vector<ByteSpan>& inputs, const std::string& what) {
  std::vector<Sha1Digest> got(inputs.size());
  Sha1::HashMany(inputs, got);
  for (size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(got[i], Sha1::Hash(inputs[i]))
        << what << ": input " << i << " of " << inputs.size() << ", " << inputs[i].size()
        << " bytes";
  }
}

TEST(Sha1MultiLaneTest, ZeroToSeventeenInputs) {
  const Bytes pool = RandomBytes(64 << 10, 10);
  Rng rng(0x5b1);
  for (size_t count = 0; count <= 17; ++count) {
    std::vector<ByteSpan> inputs;
    for (size_t i = 0; i < count; ++i) {
      const size_t len = rng.NextBelow(4096 + 1);
      inputs.push_back(ByteSpan(pool).subspan(rng.NextBelow(pool.size() - len + 1), len));
    }
    ExpectHashManyMatches(inputs, std::to_string(count) + " inputs");
  }
}

TEST(Sha1MultiLaneTest, EqualLengthsLikeAChunksShares) {
  const Bytes pool = RandomBytes(2 << 20, 11);  // 16 inputs of 64 KiB + 32
  for (size_t count : {3, 4, 6, 8, 9, 16}) {
    for (size_t len : {64, 640, 4096, 65536 + 32}) {
      std::vector<ByteSpan> inputs;
      for (size_t i = 0; i < count; ++i) {
        inputs.push_back(ByteSpan(pool).subspan(i * len, len));
      }
      ExpectHashManyMatches(inputs, std::to_string(count) + " x " + std::to_string(len));
    }
  }
}

TEST(Sha1MultiLaneTest, UnequalLengthsForceRefills) {
  const Bytes pool = RandomBytes(1 << 20, 12);
  // Block-boundary lengths between long inputs: lanes run out at different
  // steps, and inputs with no whole block never take a lane.
  const size_t kEdges[] = {0, 1, 55, 56, 63, 64, 65, 119, 120};
  std::vector<ByteSpan> inputs;
  size_t offset = 0;
  for (size_t round = 0; round < 3; ++round) {
    for (size_t edge : kEdges) {
      const size_t long_len = 4096 * (round + 1) + 7 * edge;
      inputs.push_back(ByteSpan(pool).subspan(offset, edge));
      inputs.push_back(ByteSpan(pool).subspan(offset + edge, long_len));
      offset += edge + long_len;
    }
  }
  ExpectHashManyMatches(inputs, "edges between long inputs");
  std::vector<ByteSpan> edges_only;
  for (size_t edge : kEdges) {
    edges_only.push_back(ByteSpan(pool).subspan(edge, edge));
  }
  ExpectHashManyMatches(edges_only, "edges only");

  // Random batches: lengths spread over four orders of magnitude.
  Rng rng(0x5b2);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<ByteSpan> batch(rng.NextBelow(24));
    for (ByteSpan& input : batch) {
      const size_t len = rng.NextBool(0.3) ? rng.NextBelow(130) : rng.NextBelow(20000);
      input = ByteSpan(pool).subspan(rng.NextBelow(pool.size() - len + 1), len);
    }
    ExpectHashManyMatches(batch, "trial " + std::to_string(trial));
  }
}

TEST(Sha1MultiLaneTest, OneBufferInSeveralLanes) {
  const Bytes data = RandomBytes(10000, 13);
  const Bytes other = RandomBytes(3000, 14);
  std::vector<ByteSpan> inputs(9, ByteSpan(data));
  inputs.insert(inputs.begin() + 4, ByteSpan(other));
  ExpectHashManyMatches(inputs, "shared buffer");
}

TEST(Sha1MultiLaneTest, MisalignedStarts) {
  const Bytes pool = RandomBytes(64 * 5000, 15);
  std::vector<ByteSpan> inputs;
  for (size_t misalign = 1; misalign < 64; misalign += 3) {
    inputs.push_back(ByteSpan(pool).subspan(misalign * 4096 + misalign, 2000 + misalign));
  }
  ExpectHashManyMatches(inputs, "misaligned");
}

TEST(Sha1MultiLaneTest, FourTwoMebibyteInputs) {
  const Bytes data = RandomBytes(8u << 20, 16);
  std::vector<ByteSpan> inputs;
  for (size_t i = 0; i < 4; ++i) {
    inputs.push_back(ByteSpan(data).subspan(i * (2u << 20), 2u << 20));
  }
  ExpectHashManyMatches(inputs, "4 x 2 MiB");
}

TEST(Sha1MultiLaneTest, BlockFunctionMatchesScalarLaneByLane) {
  SKIP_WITHOUT_MULTI_LANE();
  Rng rng(0x5b3);
  const Bytes pool = RandomBytes(64 * 1024 + 64, 17);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t count = rng.NextBelow(64 + 1);
    const uint8_t* blocks[kSha1Lanes];
    uint32_t lanes[5][kSha1Lanes];
    uint32_t scalar[kSha1Lanes][5];
    for (size_t k = 0; k < kSha1Lanes; ++k) {
      blocks[k] = pool.data() + rng.NextBelow(pool.size() - 64 * count + 1);
      for (size_t j = 0; j < 5; ++j) {
        lanes[j][k] = scalar[k][j] = static_cast<uint32_t>(rng.Next());
      }
    }
    Sha1BlocksMultiLane(lanes, blocks, count);
    for (size_t k = 0; k < kSha1Lanes; ++k) {
      Sha1BlocksScalar(scalar[k], blocks[k], count);
      for (size_t j = 0; j < 5; ++j) {
        ASSERT_EQ(lanes[j][k], scalar[k][j])
            << "lane " << k << " word " << j << " count " << count << " trial " << trial;
      }
    }
  }
}

// --- Share naming ---

TEST(NamingTest, ShareNamesAreDeterministic) {
  const Sha1Digest chunk = Sha1::Hash(std::string_view("chunk content"));
  EXPECT_EQ(ShareName(chunk, 0, 2), ShareName(chunk, 0, 2));
}

TEST(NamingTest, ShareNamesDifferByIndex) {
  const Sha1Digest chunk = Sha1::Hash(std::string_view("chunk content"));
  std::set<std::string> names;
  for (uint32_t idx = 0; idx < 16; ++idx) {
    names.insert(ShareName(chunk, idx, 2));
  }
  EXPECT_EQ(names.size(), 16u);
}

TEST(NamingTest, ShareNamesDifferByT) {
  const Sha1Digest chunk = Sha1::Hash(std::string_view("chunk content"));
  EXPECT_NE(ShareName(chunk, 0, 2), ShareName(chunk, 0, 3));
}

TEST(NamingTest, ShareNamesDifferByContent) {
  EXPECT_NE(ShareName(Sha1::Hash(std::string_view("a")), 0, 2),
            ShareName(Sha1::Hash(std::string_view("b")), 0, 2));
}

TEST(NamingTest, ShareNameDoesNotLeakIndexTrivially) {
  // The name must not simply embed the index: names for consecutive indices
  // share no long common prefix.
  const Sha1Digest chunk = Sha1::Hash(std::string_view("secret"));
  const std::string n0 = ShareName(chunk, 0, 2);
  const std::string n1 = ShareName(chunk, 1, 2);
  size_t common = 0;
  while (common < n0.size() && n0[common] == n1[common]) {
    ++common;
  }
  EXPECT_LT(common, 8u);
}

TEST(NamingTest, MetadataNameHasPrefix) {
  const std::string name = MetadataName(Sha1::Hash(std::string_view("v1")));
  EXPECT_EQ(name.substr(0, 5), "meta-");
}

// --- Key derivation ---

TEST(NamingTest, DispersalVectorDeterministicAndDistinct) {
  const auto v1 = DeriveDispersalVector("my key", 8);
  const auto v2 = DeriveDispersalVector("my key", 8);
  EXPECT_EQ(v1, v2);
  std::set<uint8_t> uniq(v1.begin(), v1.end());
  EXPECT_EQ(uniq.size(), 8u);
  EXPECT_EQ(uniq.count(0), 0u);
}

TEST(NamingTest, DispersalVectorKeyDependence) {
  EXPECT_NE(DeriveDispersalVector("key a", 4), DeriveDispersalVector("key b", 4));
}

TEST(NamingTest, EvaluationPointsMaxCount) {
  const auto points = DeriveEvaluationPoints("key", 255);
  std::set<uint8_t> uniq(points.begin(), points.end());
  EXPECT_EQ(uniq.size(), 255u);
  EXPECT_EQ(uniq.count(0), 0u);
}

TEST(NamingTest, EvaluationPointsDisjointDomainsFromDispersal) {
  // Same key, different domains: the streams must not coincide.
  EXPECT_NE(DeriveEvaluationPoints("key", 8), DeriveDispersalVector("key", 8));
}

}  // namespace
}  // namespace cyrus
