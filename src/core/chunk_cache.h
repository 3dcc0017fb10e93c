// A byte-budgeted, sharded ARC cache over decoded chunk plaintext.
//
// Range reads turn the access pattern from "whole file, once" into "hot
// ranges, repeatedly": a streaming client re-reads the same chunks across
// seeks, and many readers share a working set. Caching *decoded plaintext*
// (not shares) means a hit skips the CSPs, the RS decode, and the hash
// check entirely - the chunk id IS the SHA-1 of the cached bytes, so an
// entry can never serve wrong data, only stale-but-identical data.
//
// Eviction is ARC (Adaptive Replacement Cache), adapted to byte-weighted
// entries: two resident lists (T1 = seen once, T2 = seen twice) plus two
// ghost lists (B1/B2) remembering recently evicted ids. A ghost hit shifts
// the adaptation target p toward the list that would have kept the entry,
// so the cache balances recency against frequency by itself - a one-shot
// sequential scan cannot flush the frequently re-read chunks in T2,
// which is exactly the failure mode a plain LRU has under streaming.
//
// Sharded by chunk-id prefix: readers on different pool threads hit
// different mutexes. Values are shared_ptr<const Bytes>, so a reader keeps
// its chunk alive even if the entry is evicted mid-read, and inserting a
// decoded chunk is a pointer copy, not a byte copy.
//
// Ownership vs BufferPool (see DESIGN.md "Streaming & range reads"): the
// BufferPool recycles *transient* encode/decode scratch whose lifetime
// ends with the operation; the chunk cache owns *resident* plaintext with
// open-ended lifetime. The two never exchange storage - a pooled buffer
// handed to the cache would pin pool capacity forever.
#ifndef SRC_CORE_CHUNK_CACHE_H_
#define SRC_CORE_CHUNK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/crypto/sha1.h"
#include "src/obs/metrics.h"
#include "src/util/bytes.h"

namespace cyrus {

struct ChunkCacheOptions {
  // Total resident plaintext budget across all shards. 0 disables the
  // cache (every Get misses, Put is a no-op).
  uint64_t byte_budget = 64ull << 20;
  // Lock shards; rounded up to at least 1. Chunk ids are uniform (SHA-1),
  // so shard load balances without any placement logic.
  size_t shards = 8;
  // Metrics sink; nullptr selects the process-wide default registry.
  obs::MetricsRegistry* metrics = nullptr;
};

class ChunkCache {
 public:
  explicit ChunkCache(ChunkCacheOptions options);

  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  // The cached plaintext of `id`, or nullptr on a miss. A hit promotes the
  // entry to the frequent list (T2) per ARC.
  std::shared_ptr<const Bytes> Get(const Sha1Digest& id);

  // Like Get but records no hit/miss metrics and performs no promotion;
  // for "would this be served from cache" decisions (duplicate fill,
  // readahead skip) that should not distort the ARC state.
  std::shared_ptr<const Bytes> Peek(const Sha1Digest& id) const;

  // Inserts decoded plaintext under `id`. `data` must be the verified
  // plaintext of `id` (the ChunkReader just verified it); the cache
  // trusts it.
  // Entries larger than a shard's budget are not cached. Re-inserting a
  // resident id refreshes its position but keeps the existing bytes.
  // `prefetched` marks readahead's inserts: such an entry that is evicted
  // or invalidated before any read used it counts as wasted readahead
  // (cyrus_readahead_wasted_total).
  void Put(const Sha1Digest& id, std::shared_ptr<const Bytes> data,
           bool prefetched = false);

  // Records that a read used `id`'s bytes without a Get (a foreground read
  // that joined the prefetch filling it), so the entry no longer counts as
  // wasted readahead. No hit is counted and the ARC lists do not move.
  void MarkUsed(const Sha1Digest& id);

  // Drops `id` from resident and ghost lists (overwrite/delete released
  // the chunk). No-op when absent.
  void Invalidate(const Sha1Digest& id);

  // Drops every entry (tests).
  void Clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t bytes = 0;       // resident plaintext (T1 + T2)
    uint64_t entries = 0;     // resident entry count
    uint64_t t1_bytes = 0;    // recency list
    uint64_t t2_bytes = 0;    // frequency list
    uint64_t ghost_entries = 0;  // B1 + B2
    // Prefetched entries that left (evicted or invalidated) before any
    // read used them; Clear drops entries without counting.
    uint64_t prefetch_wasted = 0;
  };
  Stats stats() const;

  uint64_t byte_budget() const { return options_.byte_budget; }
  bool enabled() const { return options_.byte_budget > 0; }

 private:
  // Which list an id currently lives on.
  enum class ListId : uint8_t { kT1, kT2, kB1, kB2 };

  struct Entry {
    Sha1Digest id;
    std::shared_ptr<const Bytes> data;  // null for ghosts
    uint64_t size = 0;                  // plaintext bytes (kept for ghosts)
    bool prefetched = false;            // readahead put it; no read used it yet
  };

  using EntryList = std::list<Entry>;

  struct Locator {
    ListId list;
    EntryList::iterator it;
  };

  // One ARC instance; guarded by `mutex`.
  struct Shard {
    mutable std::mutex mutex;
    EntryList t1, t2, b1, b2;
    std::unordered_map<Sha1Digest, Locator, Sha1DigestHash> index;
    uint64_t t1_bytes = 0, t2_bytes = 0, b1_bytes = 0, b2_bytes = 0;
    uint64_t p = 0;  // adaptation target for t1_bytes, in [0, budget]
  };

  Shard& shard_for(const Sha1Digest& id) {
    return shards_[static_cast<size_t>(id.Prefix64() % shards_.size())];
  }
  const Shard& shard_for(const Sha1Digest& id) const {
    return shards_[static_cast<size_t>(id.Prefix64() % shards_.size())];
  }

  // Evicts the ARC-chosen victim from T1 or T2 into its ghost list until
  // `need` more resident bytes fit under the shard budget. `ghost_hit_b2`
  // biases the boundary case toward evicting T1 (the standard ARC
  // REPLACE tie-break). Requires the shard lock.
  void Replace(Shard& shard, uint64_t need, bool ghost_hit_b2);
  // Trims a ghost list to the shard budget. Requires the shard lock.
  void TrimGhosts(Shard& shard, EntryList& list, uint64_t& bytes);
  void EraseLocked(Shard& shard, const Sha1Digest& id);

  uint64_t shard_budget() const { return shard_budget_; }

  ChunkCacheOptions options_;
  uint64_t shard_budget_ = 0;
  std::vector<Shard> shards_;

  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* prefetch_wasted_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
};

}  // namespace cyrus

#endif  // SRC_CORE_CHUNK_CACHE_H_
