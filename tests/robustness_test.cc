// Fast unit tests for the degraded-mode building blocks: the health-failure
// classification behind MarkCspFailed and the crash-safe Put write-intent
// journal. The end-to-end chaos battery lives
// in tests/degraded_test.cc (ctest label `chaos`).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cloud/availability.h"
#include "src/cloud/simulated_csp.h"
#include "src/core/client.h"
#include "src/core/put_journal.h"
#include "src/meta/metadata.h"
#include "src/obs/metrics.h"
#include "src/util/hex.h"
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

// A Put died while appending its M record: the first 20 hex digits of the
// metadata landed, the newline did not, so the record was never
// acknowledged. Recovery must see an intent without metadata and roll it
// back, not keep the torn record and fail to decode it on every start.
TEST_F(PutJournalTest, TornMetadataRecordRollsBackOnRecover) {
  {
    auto journal = PutJournal::Open(path_);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE((*journal)->BeginIntent("c4", "victim").ok());
    ASSERT_TRUE((*journal)->AppendShare("c4", "csp0", "orphan-share").ok());
  }
  {
    FileVersion version;
    version.file_name = "victim";
    const Bytes wire = version.Serialize();
    const std::string torn = StrCat("M c4 ", HexEncode(ByteSpan(wire).first(10)));
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(torn.data(), 1, torn.size(), f);
    std::fclose(f);
  }

  CyrusConfig config;
  config.key_string = "journal recovery key";
  config.client_id = "recovering";
  config.t = 2;
  config.cluster_aware = false;
  config.journal_path = path_;
  auto client = CyrusClient::Create(config);
  ASSERT_TRUE(client.ok()) << client.status();
  std::vector<std::shared_ptr<SimulatedCsp>> csps;
  for (int i = 0; i < 3; ++i) {
    csps.push_back(std::make_shared<SimulatedCsp>(SimulatedCspOptions{StrCat("csp", i)}));
    ASSERT_TRUE((*client)->AddCsp(csps.back(), CspProfile{}, Credentials{"token"}).ok());
  }
  ASSERT_TRUE(csps[0]->Upload("orphan-share", Bytes(64, 0x5A)).ok());

  auto recovery = (*client)->RecoverFromJournal();
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_EQ(recovery->intents_seen, 1u);
  EXPECT_EQ(recovery->rolled_back, 1u);
  EXPECT_EQ(recovery->rolled_forward, 0u);
  EXPECT_EQ(recovery->orphan_shares_deleted, 1u);
  EXPECT_FALSE(csps[0]->Download("orphan-share").ok());
  EXPECT_TRUE((*client)->journal()->PendingIntents().empty());
}

off_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

bool SetFileSizeLimit(rlim_t bytes) {
  struct rlimit limit {};
  if (::getrlimit(RLIMIT_FSIZE, &limit) != 0) {
    return false;
  }
  limit.rlim_cur = bytes;
  return ::setrlimit(RLIMIT_FSIZE, &limit) == 0;
}

// Runs in a forked child that caps its own file size (RLIMIT_FSIZE, with
// SIGXFSZ ignored so an oversized write fails with EFBIG instead of killing
// the process). Exits 0 when every check holds; each failed check exits
// with its own code and says why on stderr.
void CheckFailedWritesInChild(const std::string& path, size_t intents) {
  const auto fail = [](int code, const char* why) {
    std::fprintf(stderr, "check %d failed: %s\n", code, why);
    std::_Exit(code);
  };
  ::signal(SIGXFSZ, SIG_IGN);
  struct rlimit original {};
  ::getrlimit(RLIMIT_FSIZE, &original);

  // Open compacts through a tmp file that cannot grow to the journal's
  // size: Open must fail and leave the old journal in place.
  if (!SetFileSizeLimit(static_cast<rlim_t>(FileSize(path) / 2))) {
    fail(1, "setrlimit");
  }
  if (PutJournal::Open(path).ok()) {
    fail(2, "Open succeeded although its compaction could not be written");
  }
  if (!SetFileSizeLimit(original.rlim_cur)) {
    fail(3, "setrlimit");
  }
  auto journal = PutJournal::Open(path);
  if (!journal.ok() || (*journal)->PendingIntents().size() != intents) {
    fail(4, "the failed compaction lost records");
  }

  // Room for 10 bytes of the next record: the append must fail, and the
  // partial record must not corrupt the append after it.
  if (!SetFileSizeLimit(static_cast<rlim_t>(FileSize(path) + 10))) {
    fail(5, "setrlimit");
  }
  if ((*journal)->BeginIntent("f00d", "refused").ok()) {
    fail(6, "BeginIntent succeeded although its record could not be written");
  }
  if (!SetFileSizeLimit(original.rlim_cur)) {
    fail(7, "setrlimit");
  }
  if (!(*journal)->BeginIntent("beef", "accepted").ok()) {
    fail(8, "the append after a failed one failed");
  }
  journal->reset();
  auto reopened = PutJournal::Open(path);
  if (!reopened.ok()) {
    fail(9, "reopen failed after a failed append");
  }
  const std::vector<JournalIntent> pending = (*reopened)->PendingIntents();
  if (pending.size() != intents + 1 || pending.back().version_id != "beef") {
    fail(10, "reopen did not find exactly the acknowledged intents");
  }
  std::_Exit(0);
}

TEST_F(PutJournalTest, FailedWritesReturnErrorsAndKeepTheOldFile) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  constexpr size_t kIntents = 200;
  {
    auto journal = PutJournal::Open(path_);
    ASSERT_TRUE(journal.ok()) << journal.status();
    for (size_t i = 0; i < kIntents; ++i) {
      const std::string id = StrCat("a", i);
      ASSERT_TRUE((*journal)->BeginIntent(id, StrCat("file-", i)).ok());
      ASSERT_TRUE((*journal)->AppendShare(id, "dropbox", StrCat("share-", i)).ok());
    }
  }
  EXPECT_EXIT(CheckFailedWritesInChild(path_, kIntents), testing::ExitedWithCode(0), "");
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
