// Fast unit tests for the degraded-mode building blocks: the health-failure
// classification behind MarkCspFailed, the hedged fetcher, and the
// crash-safe Put write-intent journal. The end-to-end chaos battery lives
// in tests/degraded_test.cc (ctest label `chaos`).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cloud/availability.h"
#include "src/core/hedged_fetch.h"
#include "src/core/put_journal.h"
#include "src/obs/metrics.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace cyrus {
namespace {

TEST(IsCspHealthFailureTest, ClassifiesProviderVsRequestFailures) {
  EXPECT_TRUE(IsCspHealthFailure(UnavailableError("down")));
  EXPECT_TRUE(IsCspHealthFailure(DeadlineExceededError("slow")));
  EXPECT_TRUE(IsCspHealthFailure(PermissionDeniedError("expired token")));
  EXPECT_FALSE(IsCspHealthFailure(OkStatus()));
  EXPECT_FALSE(IsCspHealthFailure(NotFoundError("no object")));
  EXPECT_FALSE(IsCspHealthFailure(InvalidArgumentError("bad name")));
  EXPECT_FALSE(IsCspHealthFailure(DataLossError("bad digest")));
}

HedgeCandidate InstantCandidate(int csp, uint8_t marker) {
  HedgeCandidate c;
  c.csp = csp;
  c.share_index = static_cast<uint32_t>(csp);
  c.fetch = [marker]() -> Result<Bytes> { return Bytes{marker}; };
  return c;
}

TEST(HedgedFetcherTest, SequentialModeStopsAtNeeded) {
  obs::MetricsRegistry metrics;
  HedgeOptions options;
  options.metrics = &metrics;
  HedgedFetcher fetcher(options, /*pool=*/nullptr, /*monitor=*/nullptr);

  std::vector<HedgeCandidate> candidates;
  for (int i = 0; i < 4; ++i) {
    candidates.push_back(InstantCandidate(i, static_cast<uint8_t>(i)));
  }
  auto results = fetcher.Fetch(std::move(candidates), /*primaries=*/2, /*needed=*/2);
  size_t successes = 0;
  for (const auto& r : results) {
    successes += r.data.ok() ? 1 : 0;
    EXPECT_FALSE(r.hedged);
  }
  EXPECT_EQ(successes, 2u);  // spares never launched
}

TEST(HedgedFetcherTest, FailureLaunchesReplacementNotHedge) {
  obs::MetricsRegistry metrics;
  HedgeOptions options;
  options.max_hedges = 0;  // replacements must work even with no hedge budget
  options.metrics = &metrics;
  HedgedFetcher fetcher(options, /*pool=*/nullptr, /*monitor=*/nullptr);

  std::vector<HedgeCandidate> candidates;
  HedgeCandidate bad;
  bad.csp = 0;
  bad.fetch = []() -> Result<Bytes> { return UnavailableError("csp down"); };
  candidates.push_back(bad);
  candidates.push_back(InstantCandidate(1, 0xB1));
  candidates.push_back(InstantCandidate(2, 0xB2));

  auto results = fetcher.Fetch(std::move(candidates), /*primaries=*/2, /*needed=*/2);
  size_t successes = 0;
  for (const auto& r : results) {
    successes += r.data.ok() ? 1 : 0;
  }
  EXPECT_EQ(successes, 2u);  // the spare replaced the failed primary
  EXPECT_GT(metrics.GetCounter("cyrus_hedge_replacements_total", {}, "")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("cyrus_hedged_requests_total", {}, "")->value(), 0u);
}

TEST(HedgedFetcherTest, StragglerTriggersHedgeAndBackupWins) {
  obs::MetricsRegistry metrics;
  HedgeOptions options;
  options.enabled = true;  // constructed directly, so no client gating
  options.default_deadline_ms = 3.0;
  options.min_deadline_ms = 1.0;
  options.metrics = &metrics;
  ThreadPool pool(4);
  HedgedFetcher fetcher(options, &pool, /*monitor=*/nullptr);

  std::vector<HedgeCandidate> candidates;
  HedgeCandidate slow;
  slow.csp = 0;
  slow.fetch = []() -> Result<Bytes> {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return Bytes{0x51};
  };
  candidates.push_back(slow);
  candidates.push_back(InstantCandidate(1, 0xF1));
  candidates.push_back(InstantCandidate(2, 0xF2));  // the backup

  auto results = fetcher.Fetch(std::move(candidates), /*primaries=*/2, /*needed=*/2);
  size_t successes = 0;
  bool saw_hedged_success = false;
  for (const auto& r : results) {
    if (r.data.ok()) {
      ++successes;
      saw_hedged_success |= r.hedged;
    }
  }
  EXPECT_GE(successes, 2u);
  EXPECT_TRUE(saw_hedged_success);
  EXPECT_GT(metrics.GetCounter("cyrus_hedged_requests_total", {}, "")->value(), 0u);
  EXPECT_GT(metrics.GetCounter("cyrus_hedge_wins_total", {}, "")->value(), 0u);
}

// Regression: the selector can hand over fewer primaries than `needed`
// (infeasible problem, e.g. too few active holders clamps primaries to 1).
// If every primary succeeds there is no failure to trigger a replacement
// and no straggler to hedge, so Fetch() used to wait forever with zero
// fetches in flight; the quota top-up must launch spares instead.
TEST(HedgedFetcherTest, ShortPrimaryListTopsUpToQuota) {
  obs::MetricsRegistry metrics;
  HedgeOptions options;
  options.metrics = &metrics;  // hedging disabled: top-up alone must finish
  ThreadPool pool(4);
  HedgedFetcher fetcher(options, &pool, /*monitor=*/nullptr);

  std::vector<HedgeCandidate> candidates;
  for (int i = 0; i < 3; ++i) {
    candidates.push_back(InstantCandidate(i, static_cast<uint8_t>(0xA0 + i)));
  }
  auto results = fetcher.Fetch(std::move(candidates), /*primaries=*/1, /*needed=*/2);
  size_t successes = 0;
  for (const auto& r : results) {
    successes += r.data.ok() ? 1 : 0;
    EXPECT_FALSE(r.hedged);
  }
  EXPECT_GE(successes, 2u);
  // The top-up is quota maintenance, not a failure replacement or a hedge.
  EXPECT_EQ(metrics.GetCounter("cyrus_hedge_replacements_total", {}, "")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("cyrus_hedged_requests_total", {}, "")->value(), 0u);
}

class PutJournalTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = StrCat(testing::TempDir(), "/cyrus-journal-unit-",
                   testing::UnitTest::GetInstance()->current_test_info()->name(),
                   ".log");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(PutJournalTest, IntentLifecycleAndCompaction) {
  auto journal = PutJournal::Open(path_);
  ASSERT_TRUE(journal.ok()) << journal.status();

  ASSERT_TRUE((*journal)->BeginIntent("ab12", "docs/report.txt").ok());
  ASSERT_TRUE((*journal)->AppendShare("ab12", "dropbox", "share-0").ok());
  ASSERT_TRUE((*journal)->AppendShare("ab12", "gdrive", "share-1").ok());
  const Bytes meta = {0x00, 0x20, 0xFF, 0x0A};  // binary-safe, has \n byte
  ASSERT_TRUE((*journal)->RecordMetadata("ab12", meta).ok());

  auto pending = (*journal)->PendingIntents();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].version_id, "ab12");
  EXPECT_EQ(pending[0].file_name, "docs/report.txt");
  ASSERT_EQ(pending[0].shares.size(), 2u);
  EXPECT_EQ(pending[0].shares[0].csp_name, "dropbox");
  EXPECT_EQ(pending[0].shares[0].object_name, "share-0");
  EXPECT_EQ(pending[0].shares[1].csp_name, "gdrive");
  EXPECT_TRUE(pending[0].has_metadata);
  EXPECT_EQ(pending[0].meta_wire, meta);

  ASSERT_TRUE((*journal)->Commit("ab12").ok());
  EXPECT_TRUE((*journal)->PendingIntents().empty());

  // Reopen: the committed intent was compacted away.
  journal->reset();
  auto reopened = PutJournal::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE((*reopened)->PendingIntents().empty());
}

TEST_F(PutJournalTest, PendingIntentsSurviveReopenOldestFirst) {
  {
    auto journal = PutJournal::Open(path_);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE((*journal)->BeginIntent("0a", "first file").ok());
    ASSERT_TRUE((*journal)->AppendShare("0a", "box", "obj-a").ok());
    ASSERT_TRUE((*journal)->BeginIntent("0b", "second file").ok());
    ASSERT_TRUE((*journal)->AppendShare("0b", "box", "obj-b").ok());
  }  // close without committing: the "crash"

  auto journal = PutJournal::Open(path_);
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto pending = (*journal)->PendingIntents();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].version_id, "0a");
  EXPECT_EQ(pending[0].file_name, "first file");
  EXPECT_FALSE(pending[0].has_metadata);
  EXPECT_EQ(pending[1].version_id, "0b");
}

TEST_F(PutJournalTest, TornFinalLineIsDroppedNotFatal) {
  {
    auto journal = PutJournal::Open(path_);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE((*journal)->BeginIntent("c4", "victim").ok());
    ASSERT_TRUE((*journal)->AppendShare("c4", "s3", "obj-1").ok());
  }
  {
    // Crash mid-append: a record without its trailing newline.
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = "S c4 73";  // truncated share record
    std::fwrite(torn, 1, sizeof(torn) - 1, f);
    std::fclose(f);
  }

  auto journal = PutJournal::Open(path_);
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto pending = (*journal)->PendingIntents();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].version_id, "c4");
  ASSERT_EQ(pending[0].shares.size(), 1u);  // the torn record vanished
}

TEST_F(PutJournalTest, ShareForUnknownIntentIsRejected) {
  auto journal = PutJournal::Open(path_);
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_FALSE((*journal)->AppendShare("dead", "box", "obj").ok());
  EXPECT_FALSE((*journal)->RecordMetadata("dead", Bytes{0x01}).ok());
  // Commit is idempotent: a re-commit of an already-compacted intent is OK.
  EXPECT_TRUE((*journal)->Commit("dead").ok());
}

}  // namespace
}  // namespace cyrus
