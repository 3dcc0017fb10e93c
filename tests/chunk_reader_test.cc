// Unit tests for the one chunk read path (src/core/chunk_reader.h), driven
// directly over in-memory CSPs: clean reads, pre-decode digest rejection
// with top-up and in-place heal, the error-correcting fallback for
// digestless records, the audit mode's decode-free clean path, the typed
// failure when too few shares authenticate, and convergent records whose
// adopted digests vouch for other content. Label `integrity`.
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

struct ReaderBed {
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  CspRegistry registry;
  AvailabilityMonitor monitor;
  BufferPool buffers;
  ThreadPool pool{4};
  std::vector<int> indicted;  // CSPs reported through on_integrity_failure
  std::unique_ptr<ChunkReader> reader;

  Bytes content;
  std::vector<Share> shares;  // share i is stored at CSP i
  ChunkRecord record;
  std::vector<ShareLocation> locations;

  explicit ReaderBed(bool record_digests) {
    for (uint32_t i = 0; i < kN; ++i) {
      SimulatedCspOptions o;
      o.id = StrCat("reader-csp", i);
      csps.push_back(std::make_shared<SimulatedCsp>(o));
      EXPECT_TRUE(csps.back()->Authenticate(Credentials{"token"}).ok());
      registry.Add(csps.back(), CspProfile{});
    }
    ChunkReaderContext context;
    context.registry = &registry;
    context.monitor = &monitor;
    context.pool = &pool;
    context.buffers = &buffers;
    context.now = [] { return 0.0; };
    context.chunk_key = [](const ChunkRecord&) -> Result<std::string> {
      return std::string(kKey);
    };
    context.on_transfer_failure = [](int, const Status&) {};
    context.on_integrity_failure = [this](int csp) { indicted.push_back(csp); };
    reader = std::make_unique<ChunkReader>(std::move(context));

    Rng rng(0xC0FFEE);
    content.resize(3000);
    for (auto& b : content) {
      b = static_cast<uint8_t>(rng.Next());
    }
    auto codec = SecretSharingCodec::Create(kKey, kT, kN);
    EXPECT_TRUE(codec.ok()) << codec.status();
    shares = *codec->Encode(content);
    record = ChunkRecord{Sha1::Hash(content), 0, content.size(), kT, kN, false, {}, {}};
    for (uint32_t i = 0; i < kN; ++i) {
      EXPECT_TRUE(csps[i]->Upload(Object(i), shares[i].data).ok());
      locations.push_back(ShareLocation{record.id, i, static_cast<int32_t>(i)});
      if (record_digests) {
        record.SetShareDigest(i, Sha1::Hash(shares[i].data));
      }
    }
  }

  std::string Object(uint32_t index) const { return ShareName(record.id, index, kT); }

  void Corrupt(uint32_t index) {
    Bytes bad = shares[index].data;
    bad[7] ^= 0x5A;
    ASSERT_TRUE(csps[index]->Upload(Object(index), bad).ok());
  }

  Bytes Stored(uint32_t index) const { return *csps[index]->Download(Object(index)); }

  // Turns the record into a convergent one whose layout came from another
  // writer's ShareIndex entry: the CSPs hold shares of different content,
  // and the adopted digests match those shares, not the chunk id.
  void PublishForeignLayout() {
    Bytes other = content;
    other[0] ^= 0x01;
    auto codec = SecretSharingCodec::Create(kKey, kT, kN);
    ASSERT_TRUE(codec.ok()) << codec.status();
    shares = *codec->Encode(other);
    record.dedup = true;
    record.share_digests.clear();
    for (uint32_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(csps[i]->Upload(Object(i), shares[i].data).ok());
      record.SetShareDigest(i, Sha1::Hash(shares[i].data));
    }
  }
};

ChunkReadOptions Preferring(std::vector<int> csps) {
  ChunkReadOptions options;
  options.preferred = std::move(csps);
  return options;
}

TEST(ChunkReaderTest, CleanReadDownloadsExactlyTShares) {
  ReaderBed bed(/*record_digests=*/true);
  Bytes out(bed.content.size());
  ChunkReadResult read;
  ASSERT_TRUE(bed.reader->Read(bed.record, bed.locations, Preferring({0, 1}),
                               MutableByteSpan(out), read)
                  .ok());
  EXPECT_EQ(out, bed.content);
  EXPECT_TRUE(read.decoded);
  EXPECT_FALSE(read.corrected);
  EXPECT_EQ(read.shares_downloaded, kT);
  EXPECT_TRUE(read.corrupt.empty());
  EXPECT_EQ(read.report.CountOf(TransferKind::kGet), kT);
}

TEST(ChunkReaderTest, DigestMismatchIsRejectedToppedUpAndHealed) {
  ReaderBed bed(/*record_digests=*/true);
  bed.Corrupt(0);
  Bytes out(bed.content.size());
  ChunkReadResult read;
  ASSERT_TRUE(bed.reader->Read(bed.record, bed.locations, Preferring({0, 1}),
                               MutableByteSpan(out), read)
                  .ok());
  EXPECT_EQ(out, bed.content);
  EXPECT_EQ(read.integrity_rejected, 1u);
  EXPECT_FALSE(read.corrected);  // the mismatch never reached the decoder
  EXPECT_EQ(bed.indicted, std::vector<int>{0});
  EXPECT_EQ(read.healed, 1u);
  EXPECT_EQ(bed.Stored(0), bed.shares[0].data);
}

TEST(ChunkReaderTest, DigestlessCorruptionIsCorrectedAndNamed) {
  ReaderBed bed(/*record_digests=*/false);
  bed.Corrupt(1);
  Bytes out(bed.content.size());
  ChunkReadResult read;
  ASSERT_TRUE(bed.reader->Read(bed.record, bed.locations, Preferring({0, 1}),
                               MutableByteSpan(out), read)
                  .ok());
  EXPECT_EQ(out, bed.content);
  EXPECT_TRUE(read.corrected);
  ASSERT_EQ(read.corrupt.size(), 1u);
  EXPECT_EQ(read.corrupt[0].csp, 1);
  EXPECT_EQ(read.integrity_rejected, 0u);
  EXPECT_TRUE(bed.indicted.empty());  // inferred, not attributed
  EXPECT_EQ(read.healed, 1u);
  EXPECT_EQ(bed.Stored(1), bed.shares[1].data);
}

TEST(ChunkReaderTest, CleanAuditVerifiesEveryShareWithoutDecoding) {
  ReaderBed bed(/*record_digests=*/true);
  ChunkReadOptions audit;
  audit.all_shares = true;
  audit.quarantine = false;
  Bytes out(bed.content.size());
  ChunkReadResult read;
  ASSERT_TRUE(
      bed.reader->Read(bed.record, bed.locations, audit, MutableByteSpan(out), read)
          .ok());
  EXPECT_EQ(read.shares_downloaded, kN);
  EXPECT_FALSE(read.decoded);
  EXPECT_TRUE(read.corrupt.empty());

  // Rot found by an audit goes to the ledger, not the quarantine hook.
  bed.Corrupt(3);
  ChunkReadResult rotted;
  ASSERT_TRUE(
      bed.reader->Read(bed.record, bed.locations, audit, MutableByteSpan(out), rotted)
          .ok());
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
  Bytes out(bed.content.size());
  ChunkReadResult read;
  const Status status = bed.reader->Read(bed.record, bed.locations, Preferring({0, 1}),
                                         MutableByteSpan(out), read);
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
  Bytes out(bed.content.size());
  ChunkReadResult read;
  ASSERT_TRUE(
      bed.reader->Read(bed.record, bed.locations, options, MutableByteSpan(out), read)
          .ok());
  EXPECT_EQ(out, bed.content);
  EXPECT_EQ(read.integrity_rejected, 1u);
  EXPECT_EQ(read.healed, 0u);
  EXPECT_EQ(bed.Stored(0), rotted);
}

TEST(ChunkReaderTest, AdoptedDigestsOverOtherContentFailWithoutHealing) {
  ReaderBed bed(/*record_digests=*/true);
  bed.PublishForeignLayout();
  Bytes out(bed.content.size());

  // Every share matches its adopted digest, yet the plaintext is not the
  // chunk the id names.
  ChunkReadResult clean;
  Status status = bed.reader->Read(bed.record, bed.locations, Preferring({0, 1}),
                                   MutableByteSpan(out), clean);
  EXPECT_EQ(status.code(), StatusCode::kIntegrity) << status;
  EXPECT_FALSE(clean.decoded);

  // A rejected share must not be healed from the wrong plaintext.
  bed.Corrupt(0);
  const Bytes rotted = bed.Stored(0);
  ChunkReadResult read;
  status = bed.reader->Read(bed.record, bed.locations, Preferring({0, 1}),
                            MutableByteSpan(out), read);
  EXPECT_EQ(status.code(), StatusCode::kIntegrity) << status;
  EXPECT_EQ(read.integrity_rejected, 1u);
  EXPECT_EQ(read.healed, 0u);
  EXPECT_EQ(bed.Stored(0), rotted);
  for (uint32_t i = 1; i < kN; ++i) {
    EXPECT_EQ(bed.Stored(i), bed.shares[i].data) << "share " << i;
  }

  // Nor may the scrub's audit heal from it.
  ChunkReadOptions audit;
  audit.all_shares = true;
  audit.quarantine = false;
  ChunkReadResult audited;
  status = bed.reader->Read(bed.record, bed.locations, audit, MutableByteSpan(out),
                            audited);
  EXPECT_EQ(status.code(), StatusCode::kIntegrity) << status;
  EXPECT_EQ(audited.healed, 0u);
  EXPECT_EQ(bed.Stored(0), rotted);
}

}  // namespace
}  // namespace cyrus
