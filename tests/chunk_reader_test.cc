// Unit tests for the one chunk read path (src/core/chunk_reader.h), driven
// directly over in-memory CSPs: clean reads, pre-decode digest rejection
// with top-up and in-place heal, the error-correcting fallback for
// digestless records, the audit mode's decode-free clean path, the typed
// failure when too few shares authenticate, convergent records whose
// adopted digests vouch for other content, group reads whose chunks fail
// and heal independently, and the one-pass digest derivation. Label
// `integrity`.
#include "src/core/chunk_reader.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cloud/simulated_csp.h"
#include "src/crypto/naming.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

constexpr char kKey[] = "chunk reader key";
constexpr uint32_t kT = 2;
constexpr uint32_t kN = 5;

// One chunk dispersed over the bed's CSPs: share i is stored at CSP i.
struct StoredChunk {
  Bytes content;
  std::vector<Share> shares;
  ChunkRecord record;
  std::vector<ShareLocation> locations;
};

struct ReaderBed {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  CspRegistry registry;
  AvailabilityMonitor monitor;
  CspCalls calls{&registry, &monitor, RetryOptions{}, nullptr, nullptr};
  BufferPool buffers;
  ThreadPool pool{4};
  std::vector<int> indicted;  // CSPs reported through on_integrity_failure
  std::unique_ptr<ChunkReader> reader;
  // Chunk c holds 3000 + 700c bytes, so a group's shares differ in length.
  std::vector<StoredChunk> chunks;

  explicit ReaderBed(bool record_digests, size_t chunk_count = 1) {
    for (uint32_t i = 0; i < kN; ++i) {
      SimulatedCspOptions o;
      o.id = StrCat("reader-csp", i);
      csps.push_back(std::make_shared<SimulatedCsp>(o));
      EXPECT_TRUE(csps.back()->Authenticate(Credentials{"token"}).ok());
      registry.Add(csps.back(), CspProfile{});
    }
    ChunkReaderContext context;
    context.registry = &registry;
    context.calls = &calls;
    context.monitor = &monitor;
    context.pool = &pool;
    context.buffers = &buffers;
    context.now = [] { return 0.0; };
    context.chunk_key = [](const ChunkRecord&) -> Result<std::string> {
      return std::string(kKey);
    };
    context.on_integrity_failure = [this](int csp) { indicted.push_back(csp); };
    reader = std::make_unique<ChunkReader>(std::move(context));

    auto codec = SecretSharingCodec::Create(kKey, kT, kN);
    EXPECT_TRUE(codec.ok()) << codec.status();
    for (size_t c = 0; c < chunk_count; ++c) {
      StoredChunk& chunk = chunks.emplace_back();
      Rng rng(0xC0FFEE + c);
      chunk.content.resize(3000 + 700 * c);
      for (auto& b : chunk.content) {
        b = static_cast<uint8_t>(rng.Next());
      }
      chunk.shares = *codec->Encode(chunk.content);
      chunk.record = ChunkRecord{Sha1::Hash(chunk.content), 0, chunk.content.size(), kT, kN,
                                 false, {}, {}};
      for (uint32_t i = 0; i < kN; ++i) {
        EXPECT_TRUE(csps[i]->Upload(Object(i, c), chunk.shares[i].data).ok());
        chunk.locations.push_back(ShareLocation{chunk.record.id, i, static_cast<int32_t>(i)});
        if (record_digests) {
          chunk.record.SetShareDigest(i, Sha1::Hash(chunk.shares[i].data));
        }
      }
    }
  }

  // Chunk 0, the one single-chunk tests read.
  StoredChunk& first() { return chunks[0]; }

  std::string Object(uint32_t index, size_t chunk = 0) const {
    return ShareName(chunks[chunk].record.id, index, kT);
  }

  void Corrupt(uint32_t index, size_t chunk = 0) {
    Bytes bad = chunks[chunk].shares[index].data;
    bad[7] ^= 0x5A;
    ASSERT_TRUE(csps[index]->Upload(Object(index, chunk), bad).ok());
  }

  Bytes Stored(uint32_t index, size_t chunk = 0) const {
    return *csps[index]->Download(Object(index, chunk));
  }

  // Turns chunk 0's record into a convergent one whose layout came from
  // another writer's ShareIndex entry: the CSPs hold shares of different
  // content, and the adopted digests match those shares, not the chunk id.
  void PublishForeignLayout() {
    StoredChunk& chunk = first();
    Bytes other = chunk.content;
    other[0] ^= 0x01;
    auto codec = SecretSharingCodec::Create(kKey, kT, kN);
    ASSERT_TRUE(codec.ok()) << codec.status();
    chunk.shares = *codec->Encode(other);
    chunk.record.dedup = true;
    chunk.record.share_digests.clear();
    for (uint32_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(csps[i]->Upload(Object(i), chunk.shares[i].data).ok());
      chunk.record.SetShareDigest(i, Sha1::Hash(chunk.shares[i].data));
    }
  }

  Status ReadFirst(const ChunkReadOptions& options, Bytes& out, ChunkReadResult& read) {
    return reader->Read(first().record, first().locations, options, MutableByteSpan(out),
                        read);
  }

  // Reads every chunk as one group, each preferring CSPs 0 and 1.
  std::vector<ChunkReadRequest> ReadAll(std::vector<Bytes>& out,
                                        std::vector<ChunkReadResult>& results) {
    out.clear();
    results.assign(chunks.size(), ChunkReadResult{});
    std::vector<ChunkReadRequest> group(chunks.size());
    for (size_t c = 0; c < chunks.size(); ++c) {
      out.emplace_back(chunks[c].content.size());
    }
    for (size_t c = 0; c < chunks.size(); ++c) {
      group[c].chunk = &chunks[c].record;
      group[c].locations = &chunks[c].locations;
      group[c].options.preferred = {0, 1};
      group[c].dst = MutableByteSpan(out[c]);
      group[c].result = &results[c];
    }
    reader->ReadGroup(group);
    return group;
  }
};

ChunkReadOptions Preferring(std::vector<int> csps) {
  ChunkReadOptions options;
  options.preferred = std::move(csps);
  return options;
}

TEST(ChunkReaderTest, CleanReadDownloadsExactlyTShares) {
  ReaderBed bed(/*record_digests=*/true);
  Bytes out(bed.first().content.size());
  ChunkReadResult read;
  ASSERT_TRUE(bed.ReadFirst(Preferring({0, 1}), out, read).ok());
  EXPECT_EQ(out, bed.first().content);
  EXPECT_TRUE(read.decoded);
  EXPECT_FALSE(read.corrected);
  EXPECT_EQ(read.shares_downloaded, kT);
  EXPECT_TRUE(read.corrupt.empty());
  EXPECT_EQ(read.report.CountOf(TransferKind::kGet), kT);
}

// A preferred CSP that fails its download is replaced by the next
// location in the fallback walk, and the read still stops at t shares.
TEST(ChunkReaderTest, FailedPreferredDownloadIsReplacedByAFallback) {
  ReaderBed bed(/*record_digests=*/true);
  ASSERT_TRUE(bed.csps[0]->Delete(bed.Object(0)).ok());
  Bytes out(bed.first().content.size());
  ChunkReadResult read;
  ASSERT_TRUE(bed.ReadFirst(Preferring({0, 1}), out, read).ok());
  EXPECT_EQ(out, bed.first().content);
  EXPECT_EQ(read.shares_downloaded, kT);
  EXPECT_EQ(read.report.CountOf(TransferKind::kGet), kT + 1);
  EXPECT_EQ(read.report.BytesToCsp(0), 0u);
  EXPECT_GT(read.report.BytesToCsp(2), 0u);
}

// Fewer preferred CSPs than t (an infeasible selection): the walk tops the
// read up to t shares from the other locations.
TEST(ChunkReaderTest, ShortPreferredListTopsUpToT) {
  ReaderBed bed(/*record_digests=*/true);
  Bytes out(bed.first().content.size());
  ChunkReadResult read;
  ASSERT_TRUE(bed.ReadFirst(Preferring({3}), out, read).ok());
  EXPECT_EQ(out, bed.first().content);
  EXPECT_EQ(read.shares_downloaded, kT);
  EXPECT_GT(read.report.BytesToCsp(3), 0u);
}

TEST(ChunkReaderTest, DigestMismatchIsRejectedToppedUpAndHealed) {
  ReaderBed bed(/*record_digests=*/true);
  bed.Corrupt(0);
  Bytes out(bed.first().content.size());
  ChunkReadResult read;
  ASSERT_TRUE(bed.ReadFirst(Preferring({0, 1}), out, read).ok());
  EXPECT_EQ(out, bed.first().content);
  EXPECT_EQ(read.integrity_rejected, 1u);
  EXPECT_FALSE(read.corrected);  // the mismatch never reached the decoder
  EXPECT_EQ(bed.indicted, std::vector<int>{0});
  EXPECT_EQ(read.healed, 1u);
  EXPECT_EQ(bed.Stored(0), bed.first().shares[0].data);
}

TEST(ChunkReaderTest, DigestlessCorruptionIsCorrectedAndNamed) {
  ReaderBed bed(/*record_digests=*/false);
  bed.Corrupt(1);
  Bytes out(bed.first().content.size());
  ChunkReadResult read;
  ASSERT_TRUE(bed.ReadFirst(Preferring({0, 1}), out, read).ok());
  EXPECT_EQ(out, bed.first().content);
  EXPECT_TRUE(read.corrected);
  ASSERT_EQ(read.corrupt.size(), 1u);
  EXPECT_EQ(read.corrupt[0].csp, 1);
  EXPECT_EQ(read.integrity_rejected, 0u);
  EXPECT_TRUE(bed.indicted.empty());  // inferred, not attributed
  EXPECT_EQ(read.healed, 1u);
  EXPECT_EQ(bed.Stored(1), bed.first().shares[1].data);
}

TEST(ChunkReaderTest, CleanAuditVerifiesEveryShareWithoutDecoding) {
  ReaderBed bed(/*record_digests=*/true);
  ChunkReadOptions audit;
  audit.all_shares = true;
  audit.quarantine = false;
  Bytes out(bed.first().content.size());
  ChunkReadResult read;
  ASSERT_TRUE(bed.ReadFirst(audit, out, read).ok());
  EXPECT_EQ(read.shares_downloaded, kN);
  EXPECT_FALSE(read.decoded);
  EXPECT_TRUE(read.corrupt.empty());

  // Rot found by an audit goes to the ledger, not the quarantine hook.
  bed.Corrupt(3);
  ChunkReadResult rotted;
  ASSERT_TRUE(bed.ReadFirst(audit, out, rotted).ok());
  EXPECT_TRUE(rotted.decoded);
  EXPECT_EQ(rotted.healed, 1u);
  EXPECT_TRUE(bed.indicted.empty());
  EXPECT_EQ(bed.monitor.IntegrityFailureCount(3), 1u);
}

TEST(ChunkReaderTest, TooFewAuthenticSharesIsATypedIntegrityError) {
  ReaderBed bed(/*record_digests=*/true);
  for (uint32_t i = 0; i + 1 < kN; ++i) {
    bed.Corrupt(i);
  }
  Bytes out(bed.first().content.size());
  ChunkReadResult read;
  const Status status = bed.ReadFirst(Preferring({0, 1}), out, read);
  EXPECT_EQ(status.code(), StatusCode::kIntegrity) << status;
  EXPECT_EQ(read.integrity_rejected, kN - 1);
  EXPECT_EQ(read.healed, 0u);  // nothing verified to heal from
}

TEST(ChunkReaderTest, HealCanBeTurnedOff) {
  ReaderBed bed(/*record_digests=*/true);
  bed.Corrupt(0);
  const Bytes rotted = bed.Stored(0);
  ChunkReadOptions options = Preferring({0, 1});
  options.heal = false;
  Bytes out(bed.first().content.size());
  ChunkReadResult read;
  ASSERT_TRUE(bed.ReadFirst(options, out, read).ok());
  EXPECT_EQ(out, bed.first().content);
  EXPECT_EQ(read.integrity_rejected, 1u);
  EXPECT_EQ(read.healed, 0u);
  EXPECT_EQ(bed.Stored(0), rotted);
}

TEST(ChunkReaderTest, AdoptedDigestsOverOtherContentFailWithoutHealing) {
  ReaderBed bed(/*record_digests=*/true);
  bed.PublishForeignLayout();
  Bytes out(bed.first().content.size());

  // Every share matches its adopted digest, yet the plaintext is not the
  // chunk the id names.
  ChunkReadResult clean;
  Status status = bed.ReadFirst(Preferring({0, 1}), out, clean);
  EXPECT_EQ(status.code(), StatusCode::kIntegrity) << status;
  EXPECT_FALSE(clean.decoded);

  // A rejected share must not be healed from the wrong plaintext.
  bed.Corrupt(0);
  const Bytes rotted = bed.Stored(0);
  ChunkReadResult read;
  status = bed.ReadFirst(Preferring({0, 1}), out, read);
  EXPECT_EQ(status.code(), StatusCode::kIntegrity) << status;
  EXPECT_EQ(read.integrity_rejected, 1u);
  EXPECT_EQ(read.healed, 0u);
  EXPECT_EQ(bed.Stored(0), rotted);
  for (uint32_t i = 1; i < kN; ++i) {
    EXPECT_EQ(bed.Stored(i), bed.first().shares[i].data) << "share " << i;
  }

  // Nor may the scrub's audit heal from it.
  ChunkReadOptions audit;
  audit.all_shares = true;
  audit.quarantine = false;
  ChunkReadResult audited;
  status = bed.ReadFirst(audit, out, audited);
  EXPECT_EQ(status.code(), StatusCode::kIntegrity) << status;
  EXPECT_EQ(audited.healed, 0u);
  EXPECT_EQ(bed.Stored(0), rotted);
}

// A group read shares one download section and one digest pass, but a
// corrupt share stays its own chunk's business: rejected before decode,
// attributed to its CSP, topped up and healed, while the other chunks
// download exactly t shares each.
TEST(ChunkReaderTest, GroupRejectsTopsUpAndHealsOneChunksCorruptShare) {
  ReaderBed bed(/*record_digests=*/true, /*chunk_count=*/4);
  bed.Corrupt(0, /*chunk=*/2);
  std::vector<Bytes> out;
  std::vector<ChunkReadResult> results;
  const std::vector<ChunkReadRequest> group = bed.ReadAll(out, results);
  for (size_t c = 0; c < group.size(); ++c) {
    SCOPED_TRACE(StrCat("chunk ", c));
    ASSERT_TRUE(group[c].status.ok()) << group[c].status;
    EXPECT_EQ(out[c], bed.chunks[c].content);
    EXPECT_TRUE(results[c].decoded);
    EXPECT_FALSE(results[c].corrected);
    if (c == 2) {
      EXPECT_EQ(results[c].integrity_rejected, 1u);
      ASSERT_EQ(results[c].corrupt.size(), 1u);
      EXPECT_EQ(results[c].corrupt[0].csp, 0);
      EXPECT_EQ(results[c].shares_downloaded, kT + 1);
      EXPECT_EQ(results[c].healed, 1u);
    } else {
      EXPECT_EQ(results[c].integrity_rejected, 0u);
      EXPECT_EQ(results[c].shares_downloaded, kT);
      EXPECT_EQ(results[c].report.CountOf(TransferKind::kGet), kT);
      EXPECT_EQ(results[c].healed, 0u);
    }
  }
  EXPECT_EQ(bed.indicted, std::vector<int>{0});
  EXPECT_EQ(bed.Stored(0, 2), bed.chunks[2].shares[0].data);
}

TEST(ChunkReaderTest, GroupChunkBelowTFailsAloneWithDataLoss) {
  ReaderBed bed(/*record_digests=*/true, /*chunk_count=*/4);
  for (uint32_t i = 1; i < kN; ++i) {
    ASSERT_TRUE(bed.csps[i]->Delete(bed.Object(i, /*chunk=*/1)).ok());
  }
  std::vector<Bytes> out;
  std::vector<ChunkReadResult> results;
  const std::vector<ChunkReadRequest> group = bed.ReadAll(out, results);
  EXPECT_EQ(group[1].status.code(), StatusCode::kDataLoss) << group[1].status;
  EXPECT_FALSE(results[1].decoded);
  EXPECT_EQ(results[1].shares_downloaded, 1u);
  for (size_t c : {0, 2, 3}) {
    SCOPED_TRACE(StrCat("chunk ", c));
    ASSERT_TRUE(group[c].status.ok()) << group[c].status;
    EXPECT_EQ(out[c], bed.chunks[c].content);
    EXPECT_EQ(results[c].shares_downloaded, kT);
  }
}

// A legacy digestless record, a convergent record and digested records
// share one group: only the digested shares take the group's digest pass,
// and each record keeps its own plaintext check.
TEST(ChunkReaderTest, GroupMixesLegacyConvergentAndDigestedRecords) {
  ReaderBed bed(/*record_digests=*/true, /*chunk_count=*/4);
  bed.chunks[0].record.share_digests.clear();
  bed.chunks[1].record.dedup = true;
  std::vector<Bytes> out;
  std::vector<ChunkReadResult> results;
  const std::vector<ChunkReadRequest> group = bed.ReadAll(out, results);
  for (size_t c = 0; c < group.size(); ++c) {
    SCOPED_TRACE(StrCat("chunk ", c));
    ASSERT_TRUE(group[c].status.ok()) << group[c].status;
    EXPECT_EQ(out[c], bed.chunks[c].content);
    EXPECT_TRUE(results[c].decoded);
    EXPECT_FALSE(results[c].corrected);
    EXPECT_EQ(results[c].shares_downloaded, kT);
  }
}

TEST(ChunkReaderTest, DeriveDigestsMatchesPerIndexHash) {
  ReaderBed bed(/*record_digests=*/true);
  const StoredChunk& chunk = bed.first();
  auto codec = bed.reader->CodecFor(chunk.record);
  ASSERT_TRUE(codec.ok()) << codec.status();
  Bytes share(ShareSize(chunk.content.size(), kT));
  const std::vector<uint32_t> pool_of_indices = {6, 0, 3, 7, 1, 5, 2, 4};
  for (size_t count = 1; count <= pool_of_indices.size(); ++count) {
    SCOPED_TRACE(StrCat(count, " indices"));
    const std::vector<uint32_t> indices(pool_of_indices.begin(),
                                        pool_of_indices.begin() + count);
    auto digests = bed.reader->DeriveDigests(chunk.record, chunk.content, indices);
    ASSERT_TRUE(digests.ok()) << digests.status();
    ASSERT_EQ(digests->size(), count);
    for (size_t i = 0; i < count; ++i) {
      ASSERT_TRUE(codec->EncodeShareInto(chunk.content, indices[i], share).ok());
      EXPECT_EQ((*digests)[i].share_index, indices[i]);
      EXPECT_EQ((*digests)[i].digest, Sha1::Hash(share)) << "index " << indices[i];
    }
  }
}

}  // namespace
}  // namespace cyrus
