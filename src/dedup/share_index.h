// Cross-user share-level dedup index (the new layer between the chunker
// and the connectors; see DESIGN.md "Cross-user convergent dedup").
//
// Under convergent dispersal (src/crypto/convergent.h) identical chunks
// produce byte-identical shares under identical content-addressed names,
// so a chunk uploaded once serves every later writer. The ShareIndex is
// the deployment-wide table making that a constant-time decision:
//
//   content hash -> { logical size, (t, n), share layout on the CSPs,
//                     refcount }
//
// The writing side consults it inside the pipelined Put: a hit takes a
// reference and skips encode+upload entirely; a miss encodes with the
// chunk's content key, uploads, and publishes the layout. Delete and
// overwrite drop references; the scrub engine's orphan-reclaim pass
// (src/repair) deletes the shares of zero-ref entries from the CSPs and
// erases them here.
//
// Sharding & threading: entries are sharded by digest prefix, one mutex
// per shard, so concurrent writers (a gateway's shard workers all point at
// one index) contend only within a shard. Aggregate byte/entry totals are
// atomics mirrored into cyrus_dedup_* gauges.
//
// Crash safety: refcounts are money (an orphaned decrement deletes live
// data; a lost increment leaks shares), so every mutation is write-ahead
// journaled to a RecordLog (src/util/record_log.h), the same log the Put
// journal uses: one fsync per record, a record counts only once its
// newline is on disk (a torn final line is dropped on replay), and any
// failed write is an error. Records are appended while the mutated shard's
// mutex is still held (lock order: shard mutex, then journal mutex), so
// replay sees P snapshots and R deltas for a chunk in exactly the order
// memory applied them; a journal append that fails undoes the in-memory
// mutation and surfaces the error instead of letting durable state drift
// from the log. Opening an index replays the journal, compacts it to one
// P record per live entry, and continues appending. An empty journal path
// disables durability (tests and single-run benches).
//
// CSP identity: `ChunkShare.csp` values are *registry indices*, which are
// client-local. Every client sharing an index must register the same
// connectors in the same order (the gateway guarantees this for its shard
// workers).
#ifndef SRC_DEDUP_SHARE_INDEX_H_
#define SRC_DEDUP_SHARE_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/crypto/sha1.h"
#include "src/meta/chunk_table.h"
#include "src/obs/metrics.h"
#include "src/util/bytes.h"
#include "src/util/record_log.h"
#include "src/util/result.h"

namespace cyrus {

struct ShareIndexEntry {
  uint64_t logical_size = 0;  // plaintext chunk bytes (quota accounting)
  uint32_t t = 0;
  uint32_t n = 0;             // target share count at publish time
  uint64_t refcount = 0;      // live (version, chunk) references, all users
  // GC tombstone: scrub failed to delete some of this entry's objects and
  // re-published the leftovers so a later pass retries. The layout may be
  // partially deleted, so lookups treat the entry as absent (a writer must
  // re-upload rather than adopt it); only ZeroRefChunks surfaces it.
  bool pending_delete = false;
  std::vector<ChunkShare> shares;  // where the shares actually live

  // Stored share bytes for this entry (RS shares are ceil(size/t) each).
  uint64_t physical_bytes() const;
};

struct ShareIndexStats {
  uint64_t entries = 0;
  uint64_t zero_ref_entries = 0;
  uint64_t logical_bytes = 0;    // sum(refcount * logical_size): what users store
  uint64_t unique_bytes = 0;     // sum(logical_size): what exists once
  uint64_t physical_bytes = 0;   // sum of stored share bytes
  uint64_t hits = 0;             // LookupAndRef found the chunk
  uint64_t misses = 0;           // LookupAndRef did not
  uint64_t reclaimed_shares = 0; // share objects GC'd off CSPs
  uint64_t reclaimed_bytes = 0;

  // Logical bytes stored per unique byte kept; 1.0 = no duplication.
  double dedup_ratio() const {
    return unique_bytes == 0 ? 1.0
                             : static_cast<double>(logical_bytes) /
                                   static_cast<double>(unique_bytes);
  }
  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

struct ShareIndexOptions {
  // WAL path; empty disables journaling (state lives only in memory).
  std::string journal_path;
  // Entry shards (each with its own mutex). Clamped to >= 1.
  uint32_t num_shards = 16;
  // cyrus_dedup_* sink; nullptr = process-wide default.
  obs::MetricsRegistry* metrics = nullptr;
};

class ShareIndex {
 public:
  static Result<std::unique_ptr<ShareIndex>> Open(ShareIndexOptions options);

  ShareIndex(const ShareIndex&) = delete;
  ShareIndex& operator=(const ShareIndex&) = delete;

  // Read-only lookup (no ref, no hit/miss accounting).
  std::optional<ShareIndexEntry> Lookup(const Sha1Digest& chunk_id) const;

  // The Put fast path: if the chunk is indexed (and not a pending-delete
  // tombstone), atomically takes one reference and returns the entry
  // (post-increment); otherwise counts a miss and returns nullopt. The +1
  // is journaled before the hit is returned; if the journal append fails
  // the increment is undone and the chunk misses into the upload path, so
  // a replayed index can never undercount a reference some durable
  // metadata took.
  std::optional<ShareIndexEntry> LookupAndRef(const Sha1Digest& chunk_id);

  // Registers a freshly uploaded chunk with refcount = entry.refcount
  // (callers pass 1). Two clients can race the same miss: convergent
  // uploads are byte-identical idempotent overwrites, so a Publish that
  // finds the entry already present *merges* - refcounts add, share
  // layouts union - instead of failing. kDataLoss only on a (size, t)
  // parameter mismatch, which means non-convergent corruption. Journaled.
  Status Publish(const Sha1Digest& chunk_id, ShareIndexEntry entry);

  Status AddRef(const Sha1Digest& chunk_id);
  // Drops one reference; the entry stays at zero references until the
  // scrub engine reclaims its shares and calls Erase. Decrementing below
  // zero is clamped and reported (a double-release must never delete a
  // share some other user still references).
  Status Release(const Sha1Digest& chunk_id);

  // Replaces the recorded share layout (repair moved/rebuilt shares).
  Status ReplaceShares(const Sha1Digest& chunk_id, std::vector<ChunkShare> shares);

  // Removes a reclaimed entry. kFailedPrecondition while references
  // remain; kNotFound if absent. Journaled.
  Status Erase(const Sha1Digest& chunk_id);

  // Chunks eligible for GC (refcount == 0, tombstones included), in
  // digest order.
  std::vector<Sha1Digest> ZeroRefChunks() const;

  // Every entry, in digest order (tombstones included). Crash recovery
  // consults this before deleting journaled objects: a rolled-back Put
  // must never delete a content-addressed object the deployment-wide
  // index still references.
  std::vector<std::pair<Sha1Digest, ShareIndexEntry>> Snapshot() const;

  // GC bookkeeping for the cyrus_dedup_reclaimed_* counters.
  void NoteReclaimed(uint64_t shares, uint64_t bytes);

  ShareIndexStats Stats() const;
  size_t size() const;

 private:
  explicit ShareIndex(ShareIndexOptions options);

  struct Shard {
    mutable std::mutex mutex;
    std::map<Sha1Digest, ShareIndexEntry> entries;
  };

  Shard& ShardFor(const Sha1Digest& chunk_id) const;

  // Replays the journal into the shards and compacts it to one P record
  // per live entry.
  Status ReplayJournal();
  // Journals one record; no-op without a journal. Each takes journal_mutex_
  // itself and is called with the mutated shard's mutex held, so the log
  // order of P/R/E records for a chunk matches the in-memory history.
  Status JournalPublish(const Sha1Digest& chunk_id, const ShareIndexEntry& entry);
  Status JournalRef(const Sha1Digest& chunk_id, int64_t delta);
  Status JournalErase(const Sha1Digest& chunk_id);

  // Applies a delta to the aggregate totals and refreshes the gauges.
  void Account(int64_t entries_delta, int64_t logical_delta, int64_t unique_delta,
               int64_t physical_delta);

  ShareIndexOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex journal_mutex_;
  std::unique_ptr<RecordLog> journal_;  // null without a journal path

  // Aggregates (atomics: read by Stats() while shard mutexes churn).
  std::atomic<uint64_t> total_entries_{0};
  std::atomic<uint64_t> logical_bytes_{0};
  std::atomic<uint64_t> unique_bytes_{0};
  std::atomic<uint64_t> physical_bytes_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> reclaimed_shares_{0};
  std::atomic<uint64_t> reclaimed_bytes_{0};
  std::atomic<uint64_t> over_releases_{0};

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* reclaimed_shares_counter_ = nullptr;
  obs::Counter* reclaimed_bytes_counter_ = nullptr;
  obs::Counter* over_release_counter_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Gauge* logical_gauge_ = nullptr;
  obs::Gauge* unique_gauge_ = nullptr;
  obs::Gauge* physical_gauge_ = nullptr;
  obs::Gauge* ratio_gauge_ = nullptr;
};

}  // namespace cyrus

#endif  // SRC_DEDUP_SHARE_INDEX_H_
