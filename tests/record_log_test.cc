// The durable record log under the Put journal, the ShareIndex WAL and the
// local cache file: newline-terminated replay, checked appends, atomic
// compaction and whole-file replacement.
#include "src/util/record_log.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/util/strings.h"

namespace cyrus {
namespace {

class RecordLogTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = StrCat(testing::TempDir(), "/cyrus-record-log-",
                   testing::UnitTest::GetInstance()->current_test_info()->name(),
                   ".log");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteRaw(const std::string& text) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

  std::vector<std::string> ReplayAll() {
    std::vector<std::string> records;
    const Status replayed = RecordLog(path_).Replay([&records](std::string_view record) {
      records.emplace_back(record);
      return OkStatus();
    });
    EXPECT_TRUE(replayed.ok()) << replayed;
    return records;
  }

  std::string path_;
};

bool Exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

TEST_F(RecordLogTest, MissingFileReplaysNothing) {
  EXPECT_TRUE(ReplayAll().empty());
}

TEST_F(RecordLogTest, ReplayDropsAnUnterminatedTail) {
  // "c 3" would parse, but its newline never reached the disk.
  WriteRaw("a 1\nb 2\n\nc 3");
  EXPECT_EQ(ReplayAll(), (std::vector<std::string>{"a 1", "b 2"}));
  WriteRaw("only a torn record");
  EXPECT_TRUE(ReplayAll().empty());
  WriteRaw("a 1\nb 2\n");
  EXPECT_EQ(ReplayAll(), (std::vector<std::string>{"a 1", "b 2"}));
}

TEST_F(RecordLogTest, ReplayCrossesReadBoundaries) {
  std::string text;
  std::vector<std::string> expected;
  for (int i = 0; text.size() < 300 * 1024; ++i) {
    expected.push_back(std::string(1 + (i * 7919) % 1500, static_cast<char>('a' + i % 26)));
    text += expected.back();
    text += '\n';
  }
  WriteRaw(text + "torn");
  EXPECT_EQ(ReplayAll(), expected);
}

TEST_F(RecordLogTest, ReplayStopsAtTheFirstError) {
  WriteRaw("ok\nbad\nnever\n");
  std::vector<std::string> seen;
  const Status replayed = RecordLog(path_).Replay([&seen](std::string_view record) {
    seen.emplace_back(record);
    return record == "bad" ? DataLossError("bad record") : OkStatus();
  });
  EXPECT_EQ(replayed.code(), StatusCode::kDataLoss);
  EXPECT_EQ(seen, (std::vector<std::string>{"ok", "bad"}));
}

TEST_F(RecordLogTest, CompactThenAppendRoundTrips) {
  RecordLog log(path_);
  EXPECT_EQ(log.Append("early").code(), StatusCode::kFailedPrecondition);
  WriteRaw("old 1\nold 2\ntorn");
  ASSERT_TRUE(log.Compact({"x 1", "y 2"}).ok());
  EXPECT_FALSE(Exists(path_ + ".tmp"));
  ASSERT_TRUE(log.Append("z 3").ok());
  EXPECT_EQ(ReplayAll(), (std::vector<std::string>{"x 1", "y 2", "z 3"}));
  // A second compaction swaps the append target to the new file.
  ASSERT_TRUE(log.Compact({"only"}).ok());
  ASSERT_TRUE(log.Append("after").ok());
  EXPECT_EQ(ReplayAll(), (std::vector<std::string>{"only", "after"}));
}

TEST_F(RecordLogTest, ReplaceFileAtomicallyWritesTheWholeFile) {
  WriteRaw("previous contents that are longer than the new ones");
  const std::string data("new\0bytes", 9);
  ASSERT_TRUE(ReplaceFileAtomically(path_, AsByteSpan(data)).ok());
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buffer[128];
  const size_t read = std::fread(buffer, 1, sizeof(buffer), f);
  std::fclose(f);
  EXPECT_EQ(std::string(buffer, read), data);
  EXPECT_FALSE(Exists(path_ + ".tmp"));
  EXPECT_EQ(ReplaceFileAtomically(StrCat(testing::TempDir(), "/no/such/dir/file"),
                                  AsByteSpan(data))
                .code(),
            StatusCode::kUnavailable);
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
// SIGXFSZ ignored so an oversized write fails with EFBIG). Exits 0 when
// every check holds; each failed check exits with its own code.
void CheckFailedWritesInChild(const std::string& path) {
  const auto fail = [](int code, const char* why) {
    std::fprintf(stderr, "check %d failed: %s\n", code, why);
    std::_Exit(code);
  };
  ::signal(SIGXFSZ, SIG_IGN);
  struct rlimit original {};
  ::getrlimit(RLIMIT_FSIZE, &original);
  const std::vector<std::string> records(100, std::string(40, 'r'));

  RecordLog log(path);
  if (!log.Compact(records).ok() || !log.Append("acknowledged").ok()) {
    fail(1, "setup");
  }
  struct stat st {};
  ::stat(path.c_str(), &st);

  // A compaction whose tmp file cannot grow to full size fails, removes
  // the tmp file, and keeps the old file (and the append target).
  if (!SetFileSizeLimit(static_cast<rlim_t>(st.st_size / 2))) {
    fail(2, "setrlimit");
  }
  const std::vector<std::string> bigger(200, std::string(40, 'b'));
  if (log.Compact(bigger).code() != StatusCode::kUnavailable) {
    fail(3, "compaction past the size limit did not return kUnavailable");
  }
  if (Exists(path + ".tmp")) {
    fail(4, "failed compaction left its tmp file");
  }
  if (ReplaceFileAtomically(path, AsByteSpan(std::string(st.st_size, 'x'))).code() !=
      StatusCode::kUnavailable) {
    fail(5, "ReplaceFileAtomically past the size limit did not return kUnavailable");
  }

  // Room for 10 bytes of the next record: the append fails, and what
  // landed of it is cut off, so the next append starts a fresh record.
  if (!SetFileSizeLimit(static_cast<rlim_t>(st.st_size + 10))) {
    fail(6, "setrlimit");
  }
  if (log.Append("refused record, longer than ten bytes").code() !=
      StatusCode::kUnavailable) {
    fail(7, "append past the size limit did not return kUnavailable");
  }
  if (!SetFileSizeLimit(original.rlim_cur)) {
    fail(8, "setrlimit");
  }
  if (!log.Append("after").ok()) {
    fail(9, "the append after a failed one failed");
  }

  std::vector<std::string> replayed;
  const Status status = RecordLog(path).Replay([&replayed](std::string_view record) {
    replayed.emplace_back(record);
    return OkStatus();
  });
  std::vector<std::string> expected = records;
  expected.push_back("acknowledged");
  expected.push_back("after");
  if (!status.ok() || replayed != expected) {
    fail(10, "the file does not hold exactly the acknowledged records");
  }
  std::_Exit(0);
}

TEST_F(RecordLogTest, FailedWritesReturnUnavailableAndKeepAcknowledgedRecords) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(CheckFailedWritesInChild(path_), testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace cyrus
