// Unit tests for the one chunk write path (src/core/chunk_writer.h), driven
// directly over in-memory CSPs: returned digests match the stored bytes for
// both a scatter and an extension, a failover never doubles a chunk up on
// one CSP, the journal hook sees every target before its upload, and a
// scatter short of its quorum fails. Label `integrity`.
#include "src/core/chunk_writer.h"

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cloud/fault_injection.h"
#include "src/cloud/simulated_csp.h"
#include "src/crypto/naming.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

constexpr char kKey[] = "chunk writer key";
constexpr uint32_t kT = 2;
constexpr uint32_t kN = 4;
constexpr int kCsps = 6;

// (csp, object) pairs the journal hook has logged.
class JournalLog {
 public:
  Status Append(int csp, const std::string& object) {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.emplace(csp, object);
    return OkStatus();
  }
  bool Contains(int csp, std::string_view object) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.count({csp, std::string(object)}) > 0;
  }

 private:
  mutable std::mutex mutex_;
  std::set<std::pair<int, std::string>> entries_;
};

// Forwards to `inner`, counting every upload whose (csp, object) pair the
// journal had not logged when the upload reached the connector.
class JournalCheckingConnector : public CloudConnector {
 public:
  JournalCheckingConnector(std::shared_ptr<CloudConnector> inner, int csp,
                           const JournalLog* log)
      : inner_(std::move(inner)), csp_(csp), log_(log) {}

  std::string_view id() const override { return inner_->id(); }
  Status Authenticate(const Credentials& credentials) override {
    return inner_->Authenticate(credentials);
  }
  Result<std::vector<ObjectInfo>> List(std::string_view prefix) override {
    return inner_->List(prefix);
  }
  Status Upload(std::string_view name, ByteSpan data) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++uploads_;
      unjournaled_ += log_->Contains(csp_, name) ? 0 : 1;
    }
    return inner_->Upload(name, data);
  }
  Result<Bytes> Download(std::string_view name) override {
    return inner_->Download(name);
  }
  Status Delete(std::string_view name) override { return inner_->Delete(name); }

  int uploads() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return uploads_;
  }
  int unjournaled() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return unjournaled_;
  }

 private:
  std::shared_ptr<CloudConnector> inner_;
  int csp_;
  const JournalLog* log_;
  mutable std::mutex mutex_;
  int uploads_ = 0;
  int unjournaled_ = 0;
};

struct WriterBed {
  std::vector<std::shared_ptr<SimulatedCsp>> stores;
  std::vector<std::shared_ptr<FaultInjectingConnector>> faults;
  std::vector<std::shared_ptr<JournalCheckingConnector>> checked;
  JournalLog journal;
  CspRegistry registry;
  HashRing ring{64};
  AvailabilityMonitor monitor;
  BufferPool buffers;
  ThreadPool pool{4};
  std::mutex failed_mutex;
  std::set<int> failed;  // CSPs reported through on_transfer_failure
  std::unique_ptr<ChunkWriter> writer;

  Bytes content;
  Sha1Digest id;

  WriterBed() {
    for (int i = 0; i < kCsps; ++i) {
      SimulatedCspOptions o;
      o.id = StrCat("writer-csp", i);
      stores.push_back(std::make_shared<SimulatedCsp>(o));
      faults.push_back(std::make_shared<FaultInjectingConnector>(stores.back(),
                                                                 FaultInjectionOptions{}));
      checked.push_back(
          std::make_shared<JournalCheckingConnector>(faults.back(), i, &journal));
      EXPECT_TRUE(checked.back()->Authenticate(Credentials{"token"}).ok());
      EXPECT_EQ(registry.Add(checked.back(), CspProfile{}), i);
      EXPECT_TRUE(ring.AddCsp(i, o.id, -1).ok());
    }
    ChunkWriterContext context;
    context.registry = &registry;
    context.ring = &ring;
    context.monitor = &monitor;
    context.pool = &pool;
    context.buffers = &buffers;
    context.now = [] { return 0.0; };
    context.retry.max_attempts = 1;  // one connector call per upload attempt
    context.on_transfer_failure = [this](int csp, const Status&) {
      std::lock_guard<std::mutex> lock(failed_mutex);
      failed.insert(csp);
    };
    context.journal = [this](const std::string&, int csp, const std::string& object) {
      return journal.Append(csp, object);
    };
    writer = std::make_unique<ChunkWriter>(std::move(context));

    Rng rng(0xBEEF);
    content.resize(5000);
    for (auto& b : content) {
      b = static_cast<uint8_t>(rng.Next());
    }
    id = Sha1::Hash(content);
  }

  // The CSP the ring places share `index` of the chunk on.
  int Target(uint32_t index) const { return (*ring.SelectCsps(id, kN))[index]; }

  Bytes Stored(const ChunkShare& share) const {
    auto stored = stores[share.csp]->Download(ShareName(id, share.share_index, kT));
    EXPECT_TRUE(stored.ok()) << stored.status();
    return stored.ok() ? *stored : Bytes{};
  }

  Result<std::vector<ChunkShare>> Scatter(uint32_t quorum, TransferReport& report) {
    auto codec = SecretSharingCodec::Create(kKey, kT, kN);
    EXPECT_TRUE(codec.ok()) << codec.status();
    obs::TraceBuilder untraced(nullptr, "", "");
    return writer->Scatter(*codec, id, content, quorum, "intent-1", report, untraced);
  }

  Result<std::vector<ChunkShare>> Extend(uint32_t first_index, uint32_t count,
                                         const std::vector<ChunkShare>& held,
                                         TransferReport& report) {
    auto codec = SecretSharingCodec::Create(kKey, kT, kN + count);
    EXPECT_TRUE(codec.ok()) << codec.status();
    std::vector<int> exclude;
    for (const ChunkShare& share : held) {
      exclude.push_back(share.csp);
    }
    return writer->Extend(*codec, id, content, first_index, count, exclude, report);
  }
};

TEST(ChunkWriterTest, ScatterAndExtendDigestsMatchStoredBytes) {
  WriterBed bed;
  TransferReport report;
  auto shares = bed.Scatter(kN, report);
  ASSERT_TRUE(shares.ok()) << shares.status();
  ASSERT_EQ(shares->size(), kN);
  for (uint32_t i = 0; i < kN; ++i) {
    const ChunkShare& share = (*shares)[i];
    EXPECT_EQ(share.share_index, i);
    EXPECT_EQ(share.csp, bed.Target(i));
    ASSERT_TRUE(share.has_digest());
    EXPECT_EQ(share.digest, Sha1::Hash(bed.Stored(share)));
  }

  auto extra = bed.Extend(kN, 1, *shares, report);
  ASSERT_TRUE(extra.ok()) << extra.status();
  ASSERT_EQ(extra->size(), 1u);
  EXPECT_EQ((*extra)[0].share_index, kN);
  ASSERT_TRUE((*extra)[0].has_digest());
  EXPECT_EQ((*extra)[0].digest, Sha1::Hash(bed.Stored((*extra)[0])));
  EXPECT_EQ(report.CountOf(TransferKind::kPut), kN + 1u);
}

TEST(ChunkWriterTest, FailoverThenExtendNeverDoublesUpACsp) {
  WriterBed bed;
  const int down = bed.Target(1);
  bed.faults[down]->set_permanently_down(true);
  TransferReport report;
  auto shares = bed.Scatter(kN, report);
  ASSERT_TRUE(shares.ok()) << shares.status();
  ASSERT_EQ(shares->size(), kN);
  EXPECT_EQ((*shares)[1].share_index, 1u);
  EXPECT_NE((*shares)[1].csp, down);  // failed over
  EXPECT_EQ(bed.failed, std::set<int>{down});

  // Two more indices: the one healthy CSP left takes one, the downed one
  // refuses the other.
  auto extra = bed.Extend(kN, 2, *shares, report);
  ASSERT_TRUE(extra.ok()) << extra.status();
  EXPECT_EQ(extra->size(), 1u);
  std::set<int> holders;
  for (const std::vector<ChunkShare>* batch : {&*shares, &*extra}) {
    for (const ChunkShare& share : *batch) {
      EXPECT_NE(share.csp, down);
      EXPECT_TRUE(holders.insert(share.csp).second) << "two shares on CSP " << share.csp;
      EXPECT_EQ(share.digest, Sha1::Hash(bed.Stored(share)));
    }
  }
  EXPECT_EQ(holders.size(), kN + 1);
}

TEST(ChunkWriterTest, JournalSeesEveryTargetBeforeItsUpload) {
  WriterBed bed;
  const int down = bed.Target(2);
  bed.faults[down]->set_permanently_down(true);
  TransferReport report;
  auto shares = bed.Scatter(kN, report);
  ASSERT_TRUE(shares.ok()) << shares.status();
  int uploads = 0;
  for (const auto& conn : bed.checked) {
    uploads += conn->uploads();
    EXPECT_EQ(conn->unjournaled(), 0) << conn->id();
  }
  EXPECT_EQ(uploads, static_cast<int>(kN) + 1);  // the failover target too
  EXPECT_TRUE(bed.journal.Contains(down, ShareName(bed.id, 2, kT)));
  for (const ChunkShare& share : *shares) {
    EXPECT_TRUE(
        bed.journal.Contains(share.csp, ShareName(bed.id, share.share_index, kT)));
  }
}

TEST(ChunkWriterTest, ScatterBelowQuorumIsUnavailable) {
  WriterBed bed;
  for (int csp : {bed.Target(0), bed.Target(1), bed.Target(3)}) {
    bed.faults[csp]->set_permanently_down(true);
  }
  TransferReport report;
  auto shares = bed.Scatter(kN, report);
  ASSERT_FALSE(shares.ok());
  EXPECT_EQ(shares.status().code(), StatusCode::kUnavailable) << shares.status();

  // The same outage still meets a quorum of t.
  auto degraded = bed.Scatter(kT, report);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded->size(), static_cast<size_t>(kCsps - 3));
}

}  // namespace
}  // namespace cyrus
