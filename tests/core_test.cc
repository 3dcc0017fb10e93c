#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "src/cloud/simulated_csp.h"
#include "src/core/hash_ring.h"
#include "src/core/reliability.h"
#include "src/core/transfer.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace cyrus {
namespace {

Sha1Digest Id(std::string_view tag) { return Sha1::Hash(tag); }

// --- Reliability (Equation 1) ---

TEST(ReliabilityTest, BinomialCoefficients) {
  EXPECT_DOUBLE_EQ(BinomialCoefficient(4, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(4, 2), 6.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(3, 7), 0.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(20, 10), 184756.0);
}

TEST(ReliabilityTest, PerfectCspsNeverLose) {
  EXPECT_DOUBLE_EQ(ChunkLossProbability(2, 3, 0.0), 0.0);
}

TEST(ReliabilityTest, AlwaysDownCspsAlwaysLose) {
  EXPECT_DOUBLE_EQ(ChunkLossProbability(2, 3, 1.0), 1.0);
}

TEST(ReliabilityTest, NoRedundancyEqualsAnyFailure) {
  // t = n = 1: loss iff the single CSP fails.
  EXPECT_NEAR(ChunkLossProbability(1, 1, 0.01), 0.01, 1e-12);
}

TEST(ReliabilityTest, KnownTwoOfThreeValue) {
  // t=2, n=3, p=0.1: loss = P(0 or 1 survivors)
  //   = 0.1^3 + 3 * 0.9 * 0.01 = 0.001 + 0.027 = 0.028.
  EXPECT_NEAR(ChunkLossProbability(2, 3, 0.1), 0.028, 1e-12);
}

TEST(ReliabilityTest, MoreSharesMoreReliable) {
  for (uint32_t n = 2; n < 8; ++n) {
    EXPECT_GT(ChunkLossProbability(2, n, 0.05), ChunkLossProbability(2, n + 1, 0.05));
  }
}

TEST(ReliabilityTest, HigherTNeedsMoreShares) {
  const double p = 0.05, eps = 1e-6;
  auto n2 = MinSharesForReliability(2, p, eps, 20);
  auto n3 = MinSharesForReliability(3, p, eps, 20);
  ASSERT_TRUE(n2.ok());
  ASSERT_TRUE(n3.ok());
  EXPECT_GT(*n3, *n2);
}

TEST(ReliabilityTest, MinimalNIsTight) {
  // The solver's n satisfies the budget but n-1 does not.
  auto n = MinSharesForReliability(2, 0.1, 1e-4, 20);
  ASSERT_TRUE(n.ok());
  EXPECT_LE(ChunkLossProbability(2, *n, 0.1), 1e-4);
  if (*n > 2) {
    EXPECT_GT(ChunkLossProbability(2, *n - 1, 0.1), 1e-4);
  }
}

TEST(ReliabilityTest, TooFewCspsFails) {
  EXPECT_EQ(MinSharesForReliability(3, 0.1, 1e-9, 2).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ReliabilityTest, UnreachableBudgetFails) {
  EXPECT_EQ(MinSharesForReliability(2, 0.5, 1e-12, 4).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ReliabilityTest, PaperConfigurationsAreOrdered) {
  // Figure 13's observation: (2,4) is far more reliable than (3,4).
  const double p = 10.0 / 8760.0;  // ~10 h/yr downtime
  EXPECT_LT(ChunkLossProbability(2, 4, p), ChunkLossProbability(3, 4, p));
}

// --- HashRing ---

TEST(HashRingTest, AddRemoveContains) {
  HashRing ring;
  ASSERT_TRUE(ring.AddCsp(0, "dropbox", -1).ok());
  EXPECT_TRUE(ring.Contains(0));
  EXPECT_EQ(ring.AddCsp(0, "dup", -1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(ring.AddCsp(1, "dropbox", -1).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(ring.RemoveCsp(0).ok());
  EXPECT_FALSE(ring.Contains(0));
  EXPECT_EQ(ring.RemoveCsp(0).code(), StatusCode::kNotFound);
}

TEST(HashRingTest, SelectsNDistinctCsps) {
  HashRing ring;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.AddCsp(i, "csp" + std::to_string(i), -1).ok());
  }
  auto selected = ring.SelectCsps(Id("chunk"), 3);
  ASSERT_TRUE(selected.ok());
  std::set<int> uniq(selected->begin(), selected->end());
  EXPECT_EQ(uniq.size(), 3u);
}

TEST(HashRingTest, SelectionIsDeterministic) {
  HashRing a, b;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(a.AddCsp(i, "csp" + std::to_string(i), -1).ok());
    ASSERT_TRUE(b.AddCsp(i, "csp" + std::to_string(i), -1).ok());
  }
  EXPECT_EQ(*a.SelectCsps(Id("chunk-x"), 2), *b.SelectCsps(Id("chunk-x"), 2));
}

TEST(HashRingTest, TooFewCspsFails) {
  HashRing ring;
  ASSERT_TRUE(ring.AddCsp(0, "only", -1).ok());
  EXPECT_EQ(ring.SelectCsps(Id("c"), 2).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(HashRingTest, EmptyRingFails) {
  HashRing ring;
  EXPECT_FALSE(ring.SelectCsps(Id("c"), 1).ok());
}

TEST(HashRingTest, BalancesLoadAcrossCsps) {
  // Consistent hashing's point: placements spread evenly (paper §5.3).
  HashRing ring(128);
  const int kCsps = 5;
  for (int i = 0; i < kCsps; ++i) {
    ASSERT_TRUE(ring.AddCsp(i, "csp" + std::to_string(i), -1).ok());
  }
  std::map<int, int> first_choice_counts;
  const int kChunks = 5000;
  for (int c = 0; c < kChunks; ++c) {
    auto selected = ring.SelectCsps(Id("chunk-" + std::to_string(c)), 1);
    ASSERT_TRUE(selected.ok());
    first_choice_counts[selected->front()]++;
  }
  for (int i = 0; i < kCsps; ++i) {
    EXPECT_GT(first_choice_counts[i], kChunks / kCsps / 2) << "csp " << i;
    EXPECT_LT(first_choice_counts[i], kChunks * 2 / kCsps) << "csp " << i;
  }
}

TEST(HashRingTest, RemovalOnlyRemapsRemovedCspsChunks) {
  // The §5.5 minimal-reshuffle property: removing a CSP must not move
  // placements that did not involve it.
  HashRing ring;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.AddCsp(i, "csp" + std::to_string(i), -1).ok());
  }
  std::map<int, int> before;
  for (int c = 0; c < 500; ++c) {
    before[c] = ring.SelectCsps(Id("k" + std::to_string(c)), 1)->front();
  }
  ASSERT_TRUE(ring.RemoveCsp(2).ok());
  for (int c = 0; c < 500; ++c) {
    const int now = ring.SelectCsps(Id("k" + std::to_string(c)), 1)->front();
    if (before[c] != 2) {
      EXPECT_EQ(now, before[c]) << "chunk " << c << " moved unnecessarily";
    } else {
      EXPECT_NE(now, 2);
    }
  }
}

TEST(HashRingTest, AdditionOnlyStealsFromExistingCsps) {
  // Adding an account must not shuffle placements among the old CSPs: a
  // chunk's first choice either stays put or moves to the *new* CSP
  // (consistent hashing's minimal-disruption property, paper §5.5).
  HashRing ring;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.AddCsp(i, "csp" + std::to_string(i), -1).ok());
  }
  std::map<int, int> before;
  for (int c = 0; c < 500; ++c) {
    before[c] = ring.SelectCsps(Id("k" + std::to_string(c)), 1)->front();
  }
  ASSERT_TRUE(ring.AddCsp(4, "newcomer", -1).ok());
  int moved = 0;
  for (int c = 0; c < 500; ++c) {
    const int now = ring.SelectCsps(Id("k" + std::to_string(c)), 1)->front();
    if (now != before[c]) {
      EXPECT_EQ(now, 4) << "chunk " << c << " moved between old CSPs";
      ++moved;
    }
  }
  // The newcomer takes roughly 1/5 of first choices.
  EXPECT_GT(moved, 500 / 5 / 2);
  EXPECT_LT(moved, 500 * 2 / 5);
}

TEST(HashRingTest, ClusterAwareAvoidsSamePlatform) {
  HashRing ring;
  // Two CSPs on cluster 0, two on cluster 1, one on cluster 2.
  ASSERT_TRUE(ring.AddCsp(0, "a", 0).ok());
  ASSERT_TRUE(ring.AddCsp(1, "b", 0).ok());
  ASSERT_TRUE(ring.AddCsp(2, "c", 1).ok());
  ASSERT_TRUE(ring.AddCsp(3, "d", 1).ok());
  ASSERT_TRUE(ring.AddCsp(4, "e", 2).ok());
  const std::map<int, int> cluster_of = {{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}};
  for (int c = 0; c < 100; ++c) {
    auto selected = ring.SelectCspsClusterAware(Id("c" + std::to_string(c)), 3);
    ASSERT_TRUE(selected.ok());
    std::set<int> clusters;
    for (int csp : *selected) {
      clusters.insert(cluster_of.at(csp));
    }
    EXPECT_EQ(clusters.size(), 3u) << "chunk " << c << " reused a platform";
  }
}

TEST(HashRingTest, ClusterAwareFailsWhenNotEnoughClusters) {
  HashRing ring;
  ASSERT_TRUE(ring.AddCsp(0, "a", 0).ok());
  ASSERT_TRUE(ring.AddCsp(1, "b", 0).ok());
  EXPECT_FALSE(ring.SelectCspsClusterAware(Id("c"), 2).ok());
}

TEST(HashRingTest, ExclusionRespected) {
  HashRing ring;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.AddCsp(i, "csp" + std::to_string(i), -1).ok());
  }
  auto selected = ring.SelectCspsExcluding(Id("c"), 2, {0, 1});
  ASSERT_TRUE(selected.ok());
  for (int csp : *selected) {
    EXPECT_GE(csp, 2);
  }
}

// --- TransferReport ---

TEST(TransferReportTest, Accounting) {
  TransferReport report;
  report.records.push_back({TransferKind::kPut, 0, "a", 100, true});
  report.records.push_back({TransferKind::kPut, 1, "b", 200, true});
  report.records.push_back({TransferKind::kPut, 0, "c", 50, false});  // failed
  report.records.push_back({TransferKind::kGet, 0, "d", 70, true});
  EXPECT_EQ(report.TotalBytes(TransferKind::kPut), 300u);
  EXPECT_EQ(report.TotalBytes(TransferKind::kGet), 70u);
  EXPECT_EQ(report.BytesToCsp(0), 170u);
  EXPECT_EQ(report.CountOf(TransferKind::kPut), 3u);

  TransferReport other;
  other.records.push_back({TransferKind::kPutMeta, 2, "m", 10, true});
  report.Append(other);
  EXPECT_EQ(report.records.size(), 5u);
}

TEST(TransferKindTest, Names) {
  EXPECT_EQ(TransferKindName(TransferKind::kPut), "PUT");
  EXPECT_EQ(TransferKindName(TransferKind::kGetMeta), "GET_META");
}

// --- CspCalls: the one call layer ---

// A store whose next `fail_next` calls fail with `code`.
class FlakyConnector : public CloudConnector {
 public:
  explicit FlakyConnector(std::string id)
      : store_(std::make_shared<SimulatedCsp>(SimulatedCspOptions{std::move(id)})) {}

  void FailNext(int calls, StatusCode code) {
    code_ = code;
    fail_next_ = calls;
  }

  std::string_view id() const override { return store_->id(); }
  Status Authenticate(const Credentials& credentials) override {
    return store_->Authenticate(credentials);
  }
  Result<std::vector<ObjectInfo>> List(std::string_view prefix) override {
    CYRUS_RETURN_IF_ERROR(Injected());
    return store_->List(prefix);
  }
  Status Upload(std::string_view name, ByteSpan data) override {
    CYRUS_RETURN_IF_ERROR(Injected());
    return store_->Upload(name, data);
  }
  Result<Bytes> Download(std::string_view name) override {
    CYRUS_RETURN_IF_ERROR(Injected());
    return store_->Download(name);
  }
  Status Delete(std::string_view name) override {
    CYRUS_RETURN_IF_ERROR(Injected());
    return store_->Delete(name);
  }

 private:
  Status Injected() {
    if (fail_next_.fetch_sub(1) > 0) {
      return Status(code_, "injected");
    }
    return OkStatus();
  }

  std::shared_ptr<SimulatedCsp> store_;
  std::atomic<int> fail_next_{0};
  std::atomic<StatusCode> code_{StatusCode::kUnavailable};
};

struct CallsBed {
  static constexpr int kCsps = 4;
  std::vector<std::shared_ptr<FlakyConnector>> csps;
  CspRegistry registry;
  AvailabilityMonitor monitor;
  obs::MetricsRegistry metrics;
  std::mutex failed_mutex;
  std::multiset<int> failed;  // every health failure the layer routed
  std::unique_ptr<CspCalls> calls;

  explicit CallsBed(uint32_t max_attempts = 3) {
    for (int i = 0; i < kCsps; ++i) {
      csps.push_back(std::make_shared<FlakyConnector>(StrCat("calls-csp", i)));
      EXPECT_TRUE(csps.back()->Authenticate(Credentials{"token"}).ok());
      registry.Add(csps.back(), CspProfile{});
    }
    RetryOptions retry;
    retry.max_attempts = max_attempts;
    calls = std::make_unique<CspCalls>(&registry, &monitor, retry, &metrics, [this](int csp) {
      std::lock_guard<std::mutex> lock(failed_mutex);
      failed.insert(csp);
    });
  }

  uint64_t Requests(std::string kind, std::string result) {
    return metrics
        .GetCounter("cyrus_transfer_requests_total", {{"kind", kind}, {"result", result}})
        ->value();
  }
  uint64_t BytesOf(std::string kind) {
    return metrics.GetCounter("cyrus_transfer_bytes_total", {{"kind", kind}})->value();
  }
};

// Uploads and downloads from pool threads: every attempt lands in its
// caller's report and is booked exactly once.
TEST(CspCallsTest, ConcurrentCallsFromPoolThreadsBookEveryRecordOnce) {
  CallsBed bed;
  ThreadPool pool(4);
  constexpr size_t kCalls = 64;
  std::vector<TransferReport> reports(kCalls);
  ParallelFor(&pool, kCalls, [&](size_t i) {
    const int csp = static_cast<int>(i % CallsBed::kCsps);
    const std::string object = StrCat("obj-", i);
    const Bytes data(100 + i, static_cast<uint8_t>(i));
    ASSERT_TRUE(bed.calls->Upload(csp, TransferKind::kPut, object, data, reports[i]).ok());
    auto back = bed.calls->Download(csp, TransferKind::kGetMeta, object, reports[i]);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, data);
  });
  uint64_t bytes = 0;
  for (size_t i = 0; i < kCalls; ++i) {
    ASSERT_EQ(reports[i].records.size(), 2u);
    EXPECT_EQ(reports[i].records[0].kind, TransferKind::kPut);
    EXPECT_EQ(reports[i].records[1].kind, TransferKind::kGetMeta);
    EXPECT_GT(reports[i].records[1].seconds, 0.0);
    bytes += 100 + i;
  }
  EXPECT_EQ(bed.Requests("PUT", "ok"), kCalls);
  EXPECT_EQ(bed.Requests("GET_META", "ok"), kCalls);
  EXPECT_EQ(bed.Requests("PUT", "error"), 0u);
  EXPECT_EQ(bed.BytesOf("PUT"), bytes);
  EXPECT_EQ(bed.BytesOf("GET_META"), bytes);
  EXPECT_TRUE(bed.failed.empty());
}

// A transient failure is retried in place; each attempt is journaled and
// booked, and nothing reaches the health path.
TEST(CspCallsTest, RetriedAttemptsAreJournaledAndBooked) {
  CallsBed bed;
  TransferReport report;
  bed.csps[1]->FailNext(2, StatusCode::kUnavailable);
  ASSERT_TRUE(bed.calls->Upload(1, TransferKind::kPut, "obj", Bytes(10), report).ok());
  ASSERT_EQ(report.records.size(), 3u);
  EXPECT_FALSE(report.records[0].success);
  EXPECT_FALSE(report.records[1].success);
  EXPECT_TRUE(report.records[2].success);
  EXPECT_EQ(bed.Requests("PUT", "error"), 2u);
  EXPECT_EQ(bed.Requests("PUT", "ok"), 1u);
  EXPECT_TRUE(bed.failed.empty());
}

// A status that still indicts the provider after the retries reaches the
// health path once per call; an answer from the provider does not.
TEST(CspCallsTest, OnlyAHealthFailureAfterRetriesReachesTheHealthPath) {
  CallsBed bed;
  TransferReport report;
  bed.csps[2]->FailNext(3, StatusCode::kUnavailable);
  EXPECT_EQ(bed.calls->Download(2, TransferKind::kGet, "obj", report).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(report.records.size(), 3u);
  EXPECT_EQ(bed.failed, std::multiset<int>{2});

  bed.csps[3]->FailNext(1, StatusCode::kPermissionDenied);  // not retried
  EXPECT_EQ(bed.calls->List(3, "").status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(bed.failed, (std::multiset<int>{2, 3}));

  EXPECT_EQ(bed.calls->Download(0, TransferKind::kGet, "missing", report).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(bed.calls->Upload(7, TransferKind::kPut, "obj", Bytes(1), report).code(),
            StatusCode::kInvalidArgument);  // no such CSP: no call, no record
  EXPECT_EQ(report.records.size(), 4u);
  EXPECT_EQ(bed.failed, (std::multiset<int>{2, 3}));
}

// Lists and deletes are retried and health-routed but neither journaled
// nor booked: no profile predicts a listing's cost.
TEST(CspCallsTest, ListsAndDeletesAreRetriedButNotBooked) {
  CallsBed bed;
  TransferReport report;
  ASSERT_TRUE(bed.calls->Upload(0, TransferKind::kPut, "a", Bytes(5), report).ok());
  bed.csps[0]->FailNext(2, StatusCode::kUnavailable);
  auto listing = bed.calls->List(0, "");
  ASSERT_TRUE(listing.ok()) << listing.status();
  EXPECT_EQ(listing->size(), 1u);
  bed.csps[0]->FailNext(2, StatusCode::kUnavailable);
  EXPECT_TRUE(bed.calls->Delete(0, "a").ok());
  EXPECT_EQ(report.records.size(), 1u);
  EXPECT_EQ(bed.Requests("PUT", "ok"), 1u);
  EXPECT_EQ(bed.Requests("PUT", "error"), 0u);
  EXPECT_TRUE(bed.failed.empty());
}

}  // namespace
}  // namespace cyrus
