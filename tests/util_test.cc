#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>

#include "src/util/bytes.h"
#include "src/util/hex.h"
#include "src/util/result.h"
#include "src/util/retry.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

// --- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("file missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "file missing");
  EXPECT_EQ(s.ToString(), "not_found: file missing");
}

TEST(StatusTest, CopyIsCheapAndEquivalent) {
  Status a = UnavailableError("csp down");
  Status b = a;
  EXPECT_EQ(b.code(), StatusCode::kUnavailable);
  EXPECT_EQ(b.message(), "csp down");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AlreadyExistsError("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(DataLossError("").code(), StatusCode::kDataLoss);
  EXPECT_EQ(PermissionDeniedError("").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(ResourceExhaustedError("").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(InternalError("").code(), StatusCode::kInternal);
  EXPECT_EQ(ConflictError("").code(), StatusCode::kConflict);
  EXPECT_EQ(UnimplementedError("").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() -> Status { return DataLossError("boom"); };
  auto outer = [&]() -> Status {
    CYRUS_RETURN_IF_ERROR(inner());
    return OkStatus();
  };
  EXPECT_EQ(outer().code(), StatusCode::kDataLoss);
}

// --- Result ---

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto make = [](bool ok) -> Result<std::string> {
    if (ok) {
      return std::string("hello");
    }
    return InternalError("bad");
  };
  auto use = [&](bool ok) -> Result<size_t> {
    CYRUS_ASSIGN_OR_RETURN(std::string s, make(ok));
    return s.size();
  };
  ASSERT_TRUE(use(true).ok());
  EXPECT_EQ(*use(true), 5u);
  EXPECT_EQ(use(false).status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 9);
}

// `*std::move(r)` moves the value out, as absl::StatusOr's does; `*r` on an
// lvalue still aliases it.
static_assert(std::is_same_v<decltype(*std::declval<Result<Bytes>>()), Bytes&&>);
static_assert(std::is_same_v<decltype(*std::declval<Result<Bytes>&>()), Bytes&>);
static_assert(std::is_same_v<decltype(*std::declval<const Result<Bytes>&>()), const Bytes&>);

TEST(ResultTest, RvalueDereferenceAndValueOrMoveOwnership) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(3);
  std::unique_ptr<int> p = *std::move(r);  // a copy would not compile
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, 3);
  EXPECT_EQ(*r, nullptr);  // moved from, still ok()

  Result<std::unique_ptr<int>> full = std::make_unique<int>(4);
  std::unique_ptr<int> q = std::move(full).value_or(nullptr);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(*q, 4);
  EXPECT_EQ(*full, nullptr);

  Result<std::unique_ptr<int>> empty = NotFoundError("nope");
  std::unique_ptr<int> fallback = std::move(empty).value_or(std::make_unique<int>(5));
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(*fallback, 5);
}

TEST(ResultTest, RvalueDereferenceLeavesTheBufferInPlace) {
  Result<Bytes> r = Bytes(1 << 16, 0x5a);
  const uint8_t* storage = r->data();
  Bytes moved = *std::move(r);
  EXPECT_EQ(moved.data(), storage);  // the same heap block, not a copy
  EXPECT_TRUE(r->empty());
}

// --- Hex ---

TEST(HexTest, RoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xcd, 0xef, 0xff};
  const std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "0001abcdefff");
  auto back = HexDecode(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(HexTest, DecodesUppercase) {
  auto r = HexDecode("DEADBEEF");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 0xde);
}

TEST(HexTest, RejectsOddLength) {
  EXPECT_EQ(HexDecode("abc").status().code(), StatusCode::kInvalidArgument);
}

TEST(HexTest, RejectsNonHex) {
  EXPECT_EQ(HexDecode("zz").status().code(), StatusCode::kInvalidArgument);
}

TEST(HexTest, EmptyInput) {
  EXPECT_EQ(HexEncode({}), "");
  auto r = HexDecode("");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

// --- Bytes ---

TEST(BytesTest, TextRoundTrip) {
  Bytes b = ToBytes("cyrus");
  EXPECT_EQ(ToString(b), "cyrus");
}

TEST(BytesTest, ConstantTimeEqual) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, ByteSpan(a.data(), 2)));
}

TEST(BytesTest, ZeroedBytesIsAllZerosAtEverySize) {
  constexpr size_t kMiB = size_t{1} << 20;
  for (size_t size : {size_t{0}, size_t{1}, size_t{4095}, 2 * kMiB - 1, 2 * kMiB,
                      2 * kMiB + 1, 9 * kMiB}) {
    const Bytes bytes = ZeroedBytes(size);
    ASSERT_EQ(bytes.size(), size);
    EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end(), [](uint8_t b) { return b == 0; }))
        << size;
  }
}

TEST(BytesTest, HugePagesInsideAreTheWholeAlignedPages) {
  constexpr uintptr_t kPage = kHugePageBytes;
  // Aligned start: every whole page, and nothing of the tail.
  HugePageRange r = HugePagesInside(4 * kPage, 3 * kPage + 1);
  EXPECT_EQ(r.begin, 4 * kPage);
  EXPECT_EQ(r.size, 3 * kPage);
  // Unaligned start: the partial head and tail are left out.
  r = HugePagesInside(4 * kPage + 16, 4 * kPage);
  EXPECT_EQ(r.begin, 5 * kPage);
  EXPECT_EQ(r.size, 3 * kPage);
  r = HugePagesInside(4 * kPage - 16, kPage + 32);
  EXPECT_EQ(r.begin, 4 * kPage);
  EXPECT_EQ(r.size, kPage);
  // Exactly one page, aligned.
  r = HugePagesInside(kPage, kPage);
  EXPECT_EQ(r.begin, kPage);
  EXPECT_EQ(r.size, kPage);
  // None fit: too small, or straddling a boundary without covering a page.
  for (const auto& [data, size] :
       {std::pair<uintptr_t, size_t>{kPage, 0}, {kPage, kPage - 1}, {kPage + 1, kPage},
        {kPage + 4096, 2 * kPage - 8192}, {kPage - 4096, 4095}}) {
    r = HugePagesInside(data, size);
    EXPECT_EQ(r.size, 0u) << data << "+" << size;
  }
}

// --- Rng ---

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.NextBelow(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(5);
  double sum = 0.0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    sum += rng.NextExponential(3.0);
  }
  EXPECT_NEAR(sum / kTrials, 3.0, 0.1);
}

TEST(RngTest, GaussianHasRequestedMoments) {
  Rng rng(6);
  double sum = 0.0, sq = 0.0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const double v = rng.NextGaussian(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kTrials;
  const double var = sq / kTrials - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// --- Strings ---

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a/b/c", '/'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", '/'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a//b", '/'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("/a", '/'), (std::vector<std::string>{"", "a"}));
}

TEST(StringsTest, Affixes) {
  EXPECT_TRUE(StartsWith("meta-abc", "meta-"));
  EXPECT_FALSE(StartsWith("abc", "meta-"));
  EXPECT_TRUE(EndsWith("photo.jpg", ".jpg"));
  EXPECT_FALSE(EndsWith("photo.jpg", ".png"));
}

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat("t=", 2, " n=", 3), "t=2 n=3");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KB");
  EXPECT_EQ(HumanBytes(40 * 1024 * 1024), "40.00 MB");
}

TEST(StringsTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(1.5), "1.500 s");
}

// --- Retry ---

TEST(RetryTest, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(IsRetryableStatus(UnavailableError("link dropped")));
  EXPECT_FALSE(IsRetryableStatus(OkStatus()));
  EXPECT_FALSE(IsRetryableStatus(NotFoundError("gone")));
  EXPECT_FALSE(IsRetryableStatus(PermissionDeniedError("bad token")));
  EXPECT_FALSE(IsRetryableStatus(ResourceExhaustedError("quota")));
}

TEST(RetryTest, SucceedsFirstTryWithoutBackoff) {
  int calls = 0;
  int delays = 0;
  Status s = RetryWithBackoff(
      RetryOptions{}, [&] { ++calls; return OkStatus(); },
      [&](double) { ++delays; });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(delays, 0);
}

TEST(RetryTest, RetriesTransientUntilSuccess) {
  int calls = 0;
  auto op = [&]() -> Status {
    return ++calls < 3 ? UnavailableError("flaky") : OkStatus();
  };
  EXPECT_TRUE(RetryWithBackoff(RetryOptions{}, op).ok());
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, StopsAtAttemptBudget) {
  RetryOptions options;
  options.max_attempts = 4;
  int calls = 0;
  Status s = RetryWithBackoff(options, [&] {
    ++calls;
    return UnavailableError("still down");
  });
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 4);
}

TEST(RetryTest, SingleAttemptDisablesRetries) {
  RetryOptions options;
  options.max_attempts = 1;
  int calls = 0;
  Status s = RetryWithBackoff(options, [&] {
    ++calls;
    return UnavailableError("down");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, NonRetryableErrorReturnsImmediately) {
  int calls = 0;
  Status s = RetryWithBackoff(RetryOptions{}, [&] {
    ++calls;
    return PermissionDeniedError("bad token");
  });
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, WorksWithResultOps) {
  int calls = 0;
  auto op = [&]() -> Result<int> {
    if (++calls < 2) {
      return UnavailableError("flaky");
    }
    return 42;
  };
  Result<int> r = RetryWithBackoff(RetryOptions{}, op);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(calls, 2);
}

TEST(RetryTest, BackoffGrowsExponentiallyWithinJitterBounds) {
  RetryOptions options;
  options.max_attempts = 6;
  options.initial_backoff_ms = 10.0;
  options.max_backoff_ms = 1000.0;
  options.multiplier = 2.0;
  options.jitter = 0.5;
  RetryBackoff backoff(options);
  double base = options.initial_backoff_ms;
  while (backoff.ShouldRetry()) {
    const double delay = backoff.NextDelayMs();
    EXPECT_GE(delay, base * 0.5);
    EXPECT_LT(delay, base * 1.5);
    base = std::min(base * options.multiplier, options.max_backoff_ms);
  }
  EXPECT_EQ(backoff.attempts(), options.max_attempts);
}

TEST(RetryTest, DelayCapRespected) {
  RetryOptions options;
  options.max_attempts = 20;
  options.initial_backoff_ms = 100.0;
  options.max_backoff_ms = 250.0;
  options.jitter = 0.0;
  RetryBackoff backoff(options);
  double last = 0.0;
  while (backoff.ShouldRetry()) {
    last = backoff.NextDelayMs();
    EXPECT_LE(last, 250.0);
  }
  EXPECT_DOUBLE_EQ(last, 250.0);
}

TEST(RetryTest, SameSeedSameDelays) {
  RetryOptions options;
  options.max_attempts = 8;
  options.seed = 99;
  RetryBackoff a(options);
  RetryBackoff b(options);
  while (a.ShouldRetry()) {
    EXPECT_DOUBLE_EQ(a.NextDelayMs(), b.NextDelayMs());
  }
}

}  // namespace
}  // namespace cyrus
