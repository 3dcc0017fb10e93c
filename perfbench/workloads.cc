#include "perfbench/workloads.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/sim/zipf.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace cyrus {
namespace perfbench {
namespace {

constexpr uint64_t kKiB = 1024;

// Incompressible bytes drawn from `rng`.
void FillRandom(Rng& rng, MutableByteSpan out) {
  size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const uint64_t word = rng.Next();
    std::memcpy(out.data() + i, &word, 8);
  }
  for (; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(rng.Next());
  }
}

Bytes RandomBytes(Rng& rng, size_t size) {
  Bytes out(size);
  FillRandom(rng, out);
  return out;
}

ChunkerOptions Chunking(uint64_t average) {
  ChunkerOptions o;
  o.modulus = average;
  o.min_chunk_size = average / 4;
  o.max_chunk_size = average * 4;
  return o;
}

template <typename T>
void Shuffle(Rng& rng, std::vector<T>& items) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBelow(i)]);
  }
}

// bulk: whole-file Put then whole-file Get of unique incompressible files
// with the default 4 MiB-average chunker. Each pair runs on a fresh
// testbed, so memory stays bounded and every pair starts from the same
// empty state.
class BulkWorkload final : public Workload {
 public:
  BulkWorkload(uint64_t seed, bool tiny)
      : seed_(seed),
        file_bytes_(tiny ? 2 * kMiB : 64 * kMiB),
        warmup_bytes_(tiny ? 512 * kKiB : 16 * kMiB),
        chunker_(tiny ? Chunking(256 * kKiB) : ChunkerOptions()) {}

  TestbedOptions testbed() const override { return {chunker_, 64 * kMiB, 1}; }

  void Setup(Session& s) override {
    Rng rng(seed_);
    const Bytes warmup = RandomBytes(rng, warmup_bytes_);
    s.Put(0, "bulk/warmup", warmup);
    GetResult got;
    if (s.Get(0, "bulk/warmup", &got)) {
      s.Check(got.content == warmup);
    }
  }

  void Measure(Session& s, double seconds) override {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    double overhead_sum = 0;
    int stored = 0;
    for (uint64_t i = 1;; ++i) {
      s.ResetTestbed();
      Rng rng(seed_ * 1000003 + i);
      const Bytes content = RandomBytes(rng, file_bytes_);
      const std::string name = StrCat("bulk/file-", i);
      if (s.Put(0, name, content)) {
        overhead_sum += static_cast<double>(s.bed().StoredBytes()) / content.size();
        ++stored;
        GetResult got;
        if (s.Get(0, name, &got)) {
          s.Check(got.content == content);
        }
      }
      if (NowNs() >= deadline) {
        break;
      }
    }
    s.storage_overhead = stored > 0 ? overhead_sum / stored : 0;
  }

 private:
  const uint64_t seed_;
  const size_t file_bytes_;
  const size_t warmup_bytes_;
  const ChunkerOptions chunker_;
};

// sync: Dropbox-style use by two devices sharing the CSPs. Device d owns
// (edits) half of the files and reads the other half, which the other
// device edits, so every Get must see the other device's latest write.
// Mix: 50% 4 KiB in-place edit + Put, 40% whole-file Get, 10% List. The op
// count is fixed per second of run time, so the version history every
// metadata scan walks grows the same way on every build.
class SyncWorkload final : public Workload {
 public:
  // Ops per second of --seconds; sized so a run takes about that long.
  static constexpr double kOpsPerSecond = 60;
  static constexpr size_t kEditBytes = 4 * kKiB;

  SyncWorkload(uint64_t seed, bool tiny)
      : seed_(seed),
        num_files_(tiny ? 10 : 100),
        min_bytes_(tiny ? 16 * kKiB : 256 * kKiB),
        max_bytes_(tiny ? 64 * kKiB : 1024 * kKiB),
        tiny_(tiny),
        chunker_(Chunking(tiny ? 4 * kKiB : 64 * kKiB)) {}

  TestbedOptions testbed() const override { return {chunker_, 64 * kMiB, 2}; }

  void Setup(Session& s) override {
    Rng rng(seed_);
    files_.clear();
    now_ = 0;
    // Sizes are evenly spread over [min, max] and dealt to files in a
    // seeded order, so every seed stores the same bytes in total.
    std::vector<size_t> rank(num_files_);
    for (size_t f = 0; f < num_files_; ++f) {
      rank[f] = f;
    }
    Shuffle(rng, rank);
    for (size_t f = 0; f < num_files_; ++f) {
      const uint64_t size = min_bytes_ + (max_bytes_ - min_bytes_) * rank[f] / (num_files_ - 1);
      files_.push_back(RandomBytes(rng, size));
      Tick(s);
      s.Put(Owner(f), Name(f), files_[f]);
    }
    for (int d = 0; d < 2; ++d) {
      ListAndCheck(s, d);
    }
    uint64_t live = 0;
    for (const Bytes& file : files_) {
      live += file.size();
    }
    s.storage_overhead = static_cast<double>(s.bed().StoredBytes()) / live;
  }

  void Measure(Session& s, double seconds) override {
    Rng rng(seed_ * 1000003 + 7);
    const size_t half = num_files_ / 2;
    const uint64_t ops = tiny_ ? 60 : static_cast<uint64_t>(kOpsPerSecond * seconds);
    for (uint64_t i = 0; i < ops; ++i) {
      Tick(s);
      const int device = static_cast<int>(rng.NextBelow(2));
      const double pick = rng.NextDouble();
      if (pick < 0.5) {
        const size_t f = device * half + rng.NextBelow(half);
        Bytes& file = files_[f];
        const uint64_t offset = rng.NextBelow(file.size() / kEditBytes) * kEditBytes;
        const Bytes before(file.begin() + offset, file.begin() + offset + kEditBytes);
        FillRandom(rng, MutableByteSpan(file).subspan(offset, kEditBytes));
        if (!s.Put(device, Name(f), file)) {
          std::copy(before.begin(), before.end(), file.begin() + offset);
        }
      } else if (pick < 0.9) {
        const size_t f = (1 - device) * half + rng.NextBelow(half);
        GetResult got;
        if (s.Get(device, Name(f), &got)) {
          s.Check(got.content == files_[f]);
        }
      } else {
        ListAndCheck(s, device);
      }
    }
  }

 private:
  int Owner(size_t f) const { return f < num_files_ / 2 ? 0 : 1; }
  static std::string Name(size_t f) { return StrCat("docs/file-", f, ".doc"); }

  void Tick(Session& s) {
    now_ += 1.0;
    s.bed().SetTime(now_);
  }

  // A listing must show every file once with its current size.
  void ListAndCheck(Session& s, int device) {
    std::vector<FileListing> listing;
    if (!s.List(device, &listing)) {
      return;
    }
    std::map<std::string, uint64_t> sizes;
    for (const FileListing& entry : listing) {
      sizes[entry.name] = entry.size;
    }
    bool correct = listing.size() == num_files_;
    for (size_t f = 0; f < num_files_ && correct; ++f) {
      auto it = sizes.find(Name(f));
      correct = it != sizes.end() && it->second == files_[f].size();
    }
    s.Check(correct);
  }

  const uint64_t seed_;
  const size_t num_files_;
  const uint64_t min_bytes_;
  const uint64_t max_bytes_;
  const bool tiny_;
  const ChunkerOptions chunker_;
  std::vector<Bytes> files_;  // ground truth, edits included
  double now_ = 0;
};

// stream: one large file read through GetRange in fixed-size requests.
// Reads are sequential; every 8th seeks to a zipf(0.9)-ranked slot-aligned
// offset. The chunk cache holds a quarter of the file; readahead keeps its
// default. The one-time Put is set-up; unrecorded warm-up reads then bring
// the cache to its steady state.
class StreamWorkload final : public Workload {
 public:
  static constexpr char kName[] = "media/stream.bin";
  // A fixed seek period keeps the sequential run between seeks, and so
  // readahead's chance to pay off, the same on every seed.
  static constexpr uint64_t kReadsPerSeek = 8;
  // The file's bytes and its hot slots are the same for every seed; the
  // seed draws the read sequence. What a seek costs depends on the size of
  // the chunks under the hot slots, and with a seeded layout that alone
  // moved range throughput by 1.6x between seeds.
  static constexpr uint64_t kLayoutSeed = 0x5eed;
  // Recorded reads per second of --seconds.
  static constexpr double kReadsPerSecond = 100;

  StreamWorkload(uint64_t seed, bool tiny)
      : seed_(seed),
        file_bytes_(tiny ? 8 * kMiB : 128 * kMiB),
        request_bytes_(tiny ? 16 * kKiB : 256 * kKiB),
        slot_bytes_(tiny ? 64 * kKiB : 1 * kMiB),
        warmup_reads_(tiny ? 64 : 256),
        tiny_(tiny),
        chunker_(Chunking(tiny ? 64 * kKiB : 1 * kMiB)),
        zipf_(file_bytes_ / slot_bytes_, 0.9) {}

  TestbedOptions testbed() const override {
    return {chunker_, file_bytes_ / 4, 1};
  }

  void Setup(Session& s) override {
    Rng layout(kLayoutSeed);
    file_ = RandomBytes(layout, file_bytes_);
    // Zipf ranks map to slots through a fixed permutation, so the hot
    // regions are scattered over the file.
    slot_of_rank_.resize(file_bytes_ / slot_bytes_);
    for (size_t i = 0; i < slot_of_rank_.size(); ++i) {
      slot_of_rank_[i] = i;
    }
    Shuffle(layout, slot_of_rank_);
    rng_ = Rng(seed_);
    cursor_ = 0;
    s.Put(0, kName, file_);
    s.storage_overhead = static_cast<double>(s.bed().StoredBytes()) / file_.size();
  }

  void WarmUp(Session& s) override { Run(s, warmup_reads_); }

  void Measure(Session& s, double seconds) override {
    Run(s, tiny_ ? 256 : static_cast<uint64_t>(kReadsPerSecond * seconds));
  }

 private:
  // Stratified zipf draws: seek j of m takes the rank at cumulative
  // probability (j + 0.5) / m, and the seed shuffles their order. Every run
  // of m seeks then visits the same multiset of slots, so the count of
  // cache misses varies only with the order.
  std::vector<uint64_t> SeekTargets(uint64_t m) {
    std::vector<uint64_t> targets;
    double cdf = 0;
    size_t rank = 0;
    for (uint64_t j = 0; j < m; ++j) {
      const double u = (j + 0.5) / m;
      while (rank + 1 < zipf_.num_ranks() && cdf + zipf_.ProbabilityOf(rank) < u) {
        cdf += zipf_.ProbabilityOf(rank++);
      }
      targets.push_back(slot_of_rank_[rank] * slot_bytes_);
    }
    Shuffle(rng_, targets);
    return targets;
  }

  // Ends once every prefetch the reads issued has settled, so the next
  // phase starts from a quiet cache and the counters are complete.
  void Run(Session& s, uint64_t reads) {
    const std::vector<uint64_t> targets = SeekTargets(reads / kReadsPerSeek);
    for (uint64_t i = 1; i <= reads; ++i) {
      if (i % kReadsPerSeek == 0) {
        cursor_ = targets[i / kReadsPerSeek - 1];
      }
      Read(s);
    }
    s.bed().device(0).WaitForReadahead();
  }

  void Read(Session& s) {
    const uint64_t len = std::min<uint64_t>(request_bytes_, file_bytes_ - cursor_);
    GetResult got;
    if (s.GetRange(0, kName, cursor_, len, &got)) {
      s.Check(got.content.size() == len &&
              std::memcmp(got.content.data(), file_.data() + cursor_, len) == 0);
    }
    cursor_ += len;
    if (cursor_ >= file_bytes_) {
      cursor_ = 0;
    }
  }

  const uint64_t seed_;
  const uint64_t file_bytes_;
  const uint64_t request_bytes_;
  const uint64_t slot_bytes_;
  const uint64_t warmup_reads_;
  const bool tiny_;
  const ChunkerOptions chunker_;
  const ZipfGenerator zipf_;
  Bytes file_;
  std::vector<uint64_t> slot_of_rank_;
  Rng rng_{0};
  uint64_t cursor_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed, bool tiny) {
  if (name == "bulk") {
    return std::make_unique<BulkWorkload>(seed, tiny);
  }
  if (name == "sync") {
    return std::make_unique<SyncWorkload>(seed, tiny);
  }
  if (name == "stream") {
    return std::make_unique<StreamWorkload>(seed, tiny);
  }
  return nullptr;
}

}  // namespace perfbench
}  // namespace cyrus
