#include "src/dedup/share_index.h"

#include <algorithm>
#include <utility>

#include "src/meta/serialize.h"
#include "src/rs/secret_sharing.h"
#include "src/util/hex.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

// Journal payload for a P record: the entry without its digest (the digest
// rides in the record key field).
Bytes EncodeEntry(const ShareIndexEntry& entry) {
  BinaryWriter w;
  w.WriteU64(entry.logical_size);
  w.WriteU32(entry.t);
  w.WriteU32(entry.n);
  w.WriteU64(entry.refcount);
  w.WriteU32(entry.pending_delete ? 1 : 0);
  w.WriteU32(static_cast<uint32_t>(entry.shares.size()));
  for (const ChunkShare& share : entry.shares) {
    w.WriteU32(share.share_index);
    w.WriteI32(share.csp);
  }
  // Per-share digests ride as a trailing block keyed by share index, so old
  // readers (which stop at the shares) and old records (which lack the
  // block; DecodeEntry treats it as optional) both stay compatible.
  uint32_t with_digest = 0;
  for (const ChunkShare& share : entry.shares) {
    if (share.has_digest()) {
      ++with_digest;
    }
  }
  w.WriteU32(with_digest);
  for (const ChunkShare& share : entry.shares) {
    if (share.has_digest()) {
      w.WriteU32(share.share_index);
      w.WriteDigest(share.digest);
    }
  }
  return w.TakeData();
}

Result<ShareIndexEntry> DecodeEntry(BinaryReader& r) {
  ShareIndexEntry entry;
  CYRUS_ASSIGN_OR_RETURN(entry.logical_size, r.ReadU64());
  CYRUS_ASSIGN_OR_RETURN(entry.t, r.ReadU32());
  CYRUS_ASSIGN_OR_RETURN(entry.n, r.ReadU32());
  CYRUS_ASSIGN_OR_RETURN(entry.refcount, r.ReadU64());
  CYRUS_ASSIGN_OR_RETURN(uint32_t pending, r.ReadU32());
  entry.pending_delete = pending != 0;
  CYRUS_ASSIGN_OR_RETURN(uint32_t num_shares, r.ReadU32());
  entry.shares.reserve(num_shares);
  for (uint32_t s = 0; s < num_shares; ++s) {
    ChunkShare share;
    CYRUS_ASSIGN_OR_RETURN(share.share_index, r.ReadU32());
    CYRUS_ASSIGN_OR_RETURN(share.csp, r.ReadI32());
    entry.shares.push_back(share);
  }
  if (!r.AtEnd()) {
    // Optional trailing digest block (records written since per-share
    // authentication landed).
    CYRUS_ASSIGN_OR_RETURN(uint32_t with_digest, r.ReadU32());
    for (uint32_t s = 0; s < with_digest; ++s) {
      CYRUS_ASSIGN_OR_RETURN(uint32_t index, r.ReadU32());
      CYRUS_ASSIGN_OR_RETURN(Sha1Digest digest, r.ReadDigest());
      for (ChunkShare& share : entry.shares) {
        if (share.share_index == index) {
          share.digest = digest;
          break;
        }
      }
    }
  }
  return entry;
}

Result<Sha1Digest> DigestFromHex(std::string_view hex) {
  CYRUS_ASSIGN_OR_RETURN(Bytes raw, HexDecode(hex));
  if (raw.size() != 20) {
    return DataLossError("share index journal: bad digest length");
  }
  Sha1Digest d;
  std::copy(raw.begin(), raw.end(), d.bytes.begin());
  return d;
}

std::string PublishRecord(const Sha1Digest& chunk_id, const ShareIndexEntry& entry) {
  return StrCat("P ", chunk_id.ToHex(), " ", HexEncode(EncodeEntry(entry)));
}

// Parses one journal record into `replay`; kDataLoss on malformed input.
Status ApplyRecord(std::string_view line, std::map<Sha1Digest, ShareIndexEntry>& replay) {
  const std::vector<std::string> fields = Split(line, ' ');
  if (fields.size() < 2) {
    return DataLossError(StrCat("share index journal: malformed record '", line, "'"));
  }
  const std::string& tag = fields[0];
  CYRUS_ASSIGN_OR_RETURN(Sha1Digest id, DigestFromHex(fields[1]));
  if (tag == "P") {
    if (fields.size() != 3) {
      return DataLossError("share index journal: malformed P record");
    }
    CYRUS_ASSIGN_OR_RETURN(Bytes payload, HexDecode(fields[2]));
    BinaryReader r(payload);
    CYRUS_ASSIGN_OR_RETURN(ShareIndexEntry entry, DecodeEntry(r));
    if (!r.AtEnd()) {
      return DataLossError("share index journal: trailing bytes in P record");
    }
    replay[id] = std::move(entry);
    return OkStatus();
  }
  if (tag == "R") {
    if (fields.size() != 3) {
      return DataLossError("share index journal: malformed R record");
    }
    auto it = replay.find(id);
    if (it == replay.end()) {
      return OkStatus();  // ref for an already-erased entry; stale but harmless
    }
    if (fields[2] == "+1") {
      ++it->second.refcount;
    } else if (fields[2] == "-1") {
      if (it->second.refcount > 0) {
        --it->second.refcount;
      }
    } else {
      return DataLossError("share index journal: bad R delta");
    }
    return OkStatus();
  }
  if (tag == "E") {
    replay.erase(id);
    return OkStatus();
  }
  return DataLossError(StrCat("share index journal: unknown tag '", tag, "'"));
}

}  // namespace

uint64_t ShareIndexEntry::physical_bytes() const {
  if (t == 0) {
    return 0;
  }
  return static_cast<uint64_t>(shares.size()) * ShareSize(logical_size, t);
}

ShareIndex::ShareIndex(ShareIndexOptions options) : options_(std::move(options)) {
  if (options_.num_shards < 1) {
    options_.num_shards = 1;
  }
  shards_.reserve(options_.num_shards);
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  metrics_ = options_.metrics != nullptr ? options_.metrics
                                         : &obs::MetricsRegistry::Default();
  hits_counter_ = metrics_->GetCounter("cyrus_dedup_hits_total", {},
                                       "Put chunks served by the share index");
  misses_counter_ = metrics_->GetCounter("cyrus_dedup_misses_total", {},
                                         "Put chunks absent from the share index");
  reclaimed_shares_counter_ =
      metrics_->GetCounter("cyrus_dedup_reclaimed_shares_total", {},
                           "Zero-ref share objects deleted from CSPs by scrub GC");
  reclaimed_bytes_counter_ =
      metrics_->GetCounter("cyrus_dedup_reclaimed_bytes_total", {},
                           "Physical share bytes reclaimed by scrub GC");
  over_release_counter_ = metrics_->GetCounter(
      "cyrus_dedup_over_releases_total", {},
      "Release calls on an entry already at zero references (clamped)");
  entries_gauge_ = metrics_->GetGauge("cyrus_dedup_index_entries", {},
                                      "Unique chunks tracked by the share index");
  logical_gauge_ = metrics_->GetGauge(
      "cyrus_dedup_logical_bytes", {},
      "Logical bytes referenced across all users (refcount-weighted)");
  unique_gauge_ = metrics_->GetGauge("cyrus_dedup_unique_bytes", {},
                                     "Unique plaintext bytes stored once");
  physical_gauge_ = metrics_->GetGauge("cyrus_dedup_physical_bytes", {},
                                       "Share bytes actually held at CSPs");
  ratio_gauge_ = metrics_->GetGauge("cyrus_dedup_ratio", {},
                                    "logical_bytes / unique_bytes");
}

Result<std::unique_ptr<ShareIndex>> ShareIndex::Open(ShareIndexOptions options) {
  std::unique_ptr<ShareIndex> index(new ShareIndex(std::move(options)));
  if (!index->options_.journal_path.empty()) {
    index->journal_ = std::make_unique<RecordLog>(index->options_.journal_path);
    CYRUS_RETURN_IF_ERROR(index->ReplayJournal());
  }
  return index;
}

ShareIndex::Shard& ShareIndex::ShardFor(const Sha1Digest& chunk_id) const {
  return *shards_[chunk_id.Prefix64() % shards_.size()];
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

Status ShareIndex::ReplayJournal() {
  std::map<Sha1Digest, ShareIndexEntry> replay;
  CYRUS_RETURN_IF_ERROR(journal_->Replay(
      [&replay](std::string_view line) { return ApplyRecord(line, replay); }));
  // Install the replayed state, rebuild the aggregates, and compact.
  std::vector<std::string> records;
  records.reserve(replay.size());
  for (auto& [id, entry] : replay) {
    records.push_back(PublishRecord(id, entry));
    Account(1, static_cast<int64_t>(entry.refcount * entry.logical_size),
            static_cast<int64_t>(entry.logical_size),
            static_cast<int64_t>(entry.physical_bytes()));
    ShardFor(id).entries.emplace(id, std::move(entry));
  }
  return journal_->Compact(records);
}

Status ShareIndex::JournalPublish(const Sha1Digest& chunk_id,
                                  const ShareIndexEntry& entry) {
  if (journal_ == nullptr) {
    return OkStatus();
  }
  std::lock_guard<std::mutex> lock(journal_mutex_);
  return journal_->Append(PublishRecord(chunk_id, entry));
}

Status ShareIndex::JournalRef(const Sha1Digest& chunk_id, int64_t delta) {
  if (journal_ == nullptr) {
    return OkStatus();
  }
  std::lock_guard<std::mutex> lock(journal_mutex_);
  return journal_->Append(StrCat("R ", chunk_id.ToHex(), " ", delta > 0 ? "+1" : "-1"));
}

Status ShareIndex::JournalErase(const Sha1Digest& chunk_id) {
  if (journal_ == nullptr) {
    return OkStatus();
  }
  std::lock_guard<std::mutex> lock(journal_mutex_);
  return journal_->Append(StrCat("E ", chunk_id.ToHex()));
}

// ---------------------------------------------------------------------------
// Entry operations
// ---------------------------------------------------------------------------

void ShareIndex::Account(int64_t entries_delta, int64_t logical_delta,
                         int64_t unique_delta, int64_t physical_delta) {
  // uint64 atomics + two's-complement deltas: adds and subtracts both land
  // as one fetch_add.
  const uint64_t entries =
      total_entries_.fetch_add(static_cast<uint64_t>(entries_delta),
                               std::memory_order_relaxed) +
      static_cast<uint64_t>(entries_delta);
  const uint64_t logical =
      logical_bytes_.fetch_add(static_cast<uint64_t>(logical_delta),
                               std::memory_order_relaxed) +
      static_cast<uint64_t>(logical_delta);
  const uint64_t unique =
      unique_bytes_.fetch_add(static_cast<uint64_t>(unique_delta),
                              std::memory_order_relaxed) +
      static_cast<uint64_t>(unique_delta);
  const uint64_t physical =
      physical_bytes_.fetch_add(static_cast<uint64_t>(physical_delta),
                                std::memory_order_relaxed) +
      static_cast<uint64_t>(physical_delta);
  entries_gauge_->Set(static_cast<double>(entries));
  logical_gauge_->Set(static_cast<double>(logical));
  unique_gauge_->Set(static_cast<double>(unique));
  physical_gauge_->Set(static_cast<double>(physical));
  ratio_gauge_->Set(unique == 0 ? 1.0
                                : static_cast<double>(logical) /
                                      static_cast<double>(unique));
}

std::optional<ShareIndexEntry> ShareIndex::Lookup(const Sha1Digest& chunk_id) const {
  Shard& shard = ShardFor(chunk_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(chunk_id);
  if (it == shard.entries.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<ShareIndexEntry> ShareIndex::LookupAndRef(const Sha1Digest& chunk_id) {
  Shard& shard = ShardFor(chunk_id);
  std::optional<ShareIndexEntry> out;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(chunk_id);
    if (it != shard.entries.end() && !it->second.pending_delete) {
      ++it->second.refcount;
      // Journaled under the shard lock so no concurrent P snapshot of this
      // chunk can land in the log on the wrong side of this +1. A failed
      // append undoes the increment and misses into the upload path: a +1
      // the log never saw would make replay undercount, and an undercounted
      // entry is exactly what lets GC reclaim shares live metadata still
      // references.
      if (JournalRef(chunk_id, +1).ok()) {
        out = it->second;
      } else {
        --it->second.refcount;
      }
    }
  }
  if (!out.has_value()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    misses_counter_->Increment();
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  hits_counter_->Increment();
  Account(0, static_cast<int64_t>(out->logical_size), 0, 0);
  return out;
}

Status ShareIndex::Publish(const Sha1Digest& chunk_id, ShareIndexEntry entry) {
  if (entry.t == 0) {
    return InvalidArgumentError("share index entry must have t >= 1");
  }
  Shard& shard = ShardFor(chunk_id);
  int64_t logical_delta = 0;
  int64_t physical_delta = 0;
  int64_t unique_delta = 0;
  int64_t entries_delta = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(chunk_id);
    if (it == shard.entries.end()) {
      entries_delta = 1;
      unique_delta = static_cast<int64_t>(entry.logical_size);
      logical_delta = static_cast<int64_t>(entry.refcount * entry.logical_size);
      physical_delta = static_cast<int64_t>(entry.physical_bytes());
      it = shard.entries.emplace(chunk_id, std::move(entry)).first;
      const Status journaled = JournalPublish(chunk_id, it->second);
      if (!journaled.ok()) {
        shard.entries.erase(it);
        return journaled;
      }
    } else {
      ShareIndexEntry& mine = it->second;
      if (mine.logical_size != entry.logical_size || mine.t != entry.t) {
        return DataLossError(
            StrCat("chunk ", chunk_id.ToHex(),
                   " published with divergent parameters: convergent encoding "
                   "should make identical content identical shares"));
      }
      const uint64_t old_physical = mine.physical_bytes();
      const uint64_t old_refcount = mine.refcount;
      const size_t old_share_count = mine.shares.size();
      const bool old_pending = mine.pending_delete;
      mine.refcount += entry.refcount;
      // A live publish (a writer just uploaded the full convergent layout)
      // revives a GC tombstone; merging two tombstones keeps the flag.
      mine.pending_delete = mine.pending_delete && entry.pending_delete;
      for (const ChunkShare& share : entry.shares) {
        bool known = false;
        for (ChunkShare& existing : mine.shares) {
          if (existing.share_index == share.share_index &&
              existing.csp == share.csp) {
            known = true;
            // Convergent encoding makes racing publishers byte-identical,
            // so a digest learned by either is authoritative for both.
            if (!existing.has_digest() && share.has_digest()) {
              existing.digest = share.digest;
            }
            break;
          }
        }
        if (!known) {
          mine.shares.push_back(share);
        }
      }
      logical_delta = static_cast<int64_t>(entry.refcount * entry.logical_size);
      physical_delta = static_cast<int64_t>(mine.physical_bytes() - old_physical);
      const Status journaled = JournalPublish(chunk_id, mine);
      if (!journaled.ok()) {
        mine.refcount = old_refcount;
        mine.shares.resize(old_share_count);
        mine.pending_delete = old_pending;
        return journaled;
      }
    }
  }
  Account(entries_delta, logical_delta, unique_delta, physical_delta);
  return OkStatus();
}

Status ShareIndex::AddRef(const Sha1Digest& chunk_id) {
  Shard& shard = ShardFor(chunk_id);
  uint64_t logical = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(chunk_id);
    if (it == shard.entries.end() || it->second.pending_delete) {
      // Tombstones read as absent: their layout may be partially deleted,
      // so a would-be adopter must re-upload instead of taking a ref.
      return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " not indexed"));
    }
    ++it->second.refcount;
    const Status journaled = JournalRef(chunk_id, +1);
    if (!journaled.ok()) {
      --it->second.refcount;
      return journaled;
    }
    logical = it->second.logical_size;
  }
  Account(0, static_cast<int64_t>(logical), 0, 0);
  return OkStatus();
}

Status ShareIndex::Release(const Sha1Digest& chunk_id) {
  Shard& shard = ShardFor(chunk_id);
  uint64_t logical = 0;
  bool clamped = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(chunk_id);
    if (it == shard.entries.end()) {
      return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " not indexed"));
    }
    if (it->second.refcount == 0) {
      clamped = true;
    } else {
      --it->second.refcount;
      // An unjournaled -1 would only make replay overcount (shares linger
      // until a later pass), but undoing keeps memory and log identical so
      // callers can retry the release.
      const Status journaled = JournalRef(chunk_id, -1);
      if (!journaled.ok()) {
        ++it->second.refcount;
        return journaled;
      }
      logical = it->second.logical_size;
    }
  }
  if (clamped) {
    over_releases_.fetch_add(1, std::memory_order_relaxed);
    over_release_counter_->Increment();
    return FailedPreconditionError(
        StrCat("chunk ", chunk_id.ToHex(), " released below zero references"));
  }
  Account(0, -static_cast<int64_t>(logical), 0, 0);
  return OkStatus();
}

Status ShareIndex::ReplaceShares(const Sha1Digest& chunk_id,
                                 std::vector<ChunkShare> shares) {
  Shard& shard = ShardFor(chunk_id);
  int64_t physical_delta = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(chunk_id);
    if (it == shard.entries.end()) {
      return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " not indexed"));
    }
    const uint64_t old_physical = it->second.physical_bytes();
    std::vector<ChunkShare> previous = std::move(it->second.shares);
    it->second.shares = std::move(shares);
    physical_delta = static_cast<int64_t>(it->second.physical_bytes() - old_physical);
    const Status journaled = JournalPublish(chunk_id, it->second);
    if (!journaled.ok()) {
      it->second.shares = std::move(previous);
      return journaled;
    }
  }
  Account(0, 0, 0, physical_delta);
  return OkStatus();
}

Status ShareIndex::Erase(const Sha1Digest& chunk_id) {
  Shard& shard = ShardFor(chunk_id);
  int64_t unique_delta = 0;
  int64_t physical_delta = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(chunk_id);
    if (it == shard.entries.end()) {
      return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " not indexed"));
    }
    if (it->second.refcount > 0) {
      return FailedPreconditionError(
          StrCat("chunk ", chunk_id.ToHex(), " still has ", it->second.refcount,
                 " references"));
    }
    unique_delta = -static_cast<int64_t>(it->second.logical_size);
    physical_delta = -static_cast<int64_t>(it->second.physical_bytes());
    ShareIndexEntry removed = std::move(it->second);
    shard.entries.erase(it);
    const Status journaled = JournalErase(chunk_id);
    if (!journaled.ok()) {
      shard.entries.emplace(chunk_id, std::move(removed));
      return journaled;
    }
  }
  Account(-1, 0, unique_delta, physical_delta);
  return OkStatus();
}

std::vector<Sha1Digest> ShareIndex::ZeroRefChunks() const {
  std::vector<Sha1Digest> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [id, entry] : shard->entries) {
      if (entry.refcount == 0) {
        out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<Sha1Digest, ShareIndexEntry>> ShareIndex::Snapshot() const {
  std::vector<std::pair<Sha1Digest, ShareIndexEntry>> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [id, entry] : shard->entries) {
      out.emplace_back(id, entry);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void ShareIndex::NoteReclaimed(uint64_t shares, uint64_t bytes) {
  reclaimed_shares_.fetch_add(shares, std::memory_order_relaxed);
  reclaimed_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  reclaimed_shares_counter_->Increment(shares);
  reclaimed_bytes_counter_->Increment(bytes);
}

ShareIndexStats ShareIndex::Stats() const {
  ShareIndexStats stats;
  stats.entries = total_entries_.load(std::memory_order_relaxed);
  stats.logical_bytes = logical_bytes_.load(std::memory_order_relaxed);
  stats.unique_bytes = unique_bytes_.load(std::memory_order_relaxed);
  stats.physical_bytes = physical_bytes_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.reclaimed_shares = reclaimed_shares_.load(std::memory_order_relaxed);
  stats.reclaimed_bytes = reclaimed_bytes_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [id, entry] : shard->entries) {
      if (entry.refcount == 0) {
        ++stats.zero_ref_entries;
      }
    }
  }
  return stats;
}

size_t ShareIndex::size() const {
  return total_entries_.load(std::memory_order_relaxed);
}

}  // namespace cyrus
