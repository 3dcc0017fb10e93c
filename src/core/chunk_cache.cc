#include "src/core/chunk_cache.h"

#include <algorithm>
#include <utility>

namespace cyrus {

ChunkCache::ChunkCache(ChunkCacheOptions options) : options_(options) {
  const size_t shard_count = std::max<size_t>(options_.shards, 1);
  shard_budget_ = options_.byte_budget / shard_count;
  shards_ = std::vector<Shard>(shard_count);

  obs::MetricsRegistry* metrics = options_.metrics != nullptr
                                      ? options_.metrics
                                      : &obs::MetricsRegistry::Default();
  hits_ = metrics->GetCounter("cyrus_chunk_cache_hits_total", {},
                              "Range/Get chunks served from the decoded-chunk cache");
  misses_ = metrics->GetCounter("cyrus_chunk_cache_misses_total", {},
                                "Chunk cache lookups that fell through to the CSPs");
  evictions_ = metrics->GetCounter("cyrus_chunk_cache_evictions_total", {},
                                   "Resident chunks evicted by the ARC policy");
  prefetch_wasted_ = metrics->GetCounter(
      "cyrus_readahead_wasted_total", {},
      "Prefetched chunks evicted or invalidated before any read used them");
  bytes_gauge_ = metrics->GetGauge("cyrus_chunk_cache_bytes", {},
                                   "Resident decoded plaintext bytes");
}

std::shared_ptr<const Bytes> ChunkCache::Get(const Sha1Digest& id) {
  if (!enabled()) {
    misses_->Increment();
    return nullptr;
  }
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(id);
  if (it == shard.index.end() || it->second.list == ListId::kB1 ||
      it->second.list == ListId::kB2) {
    misses_->Increment();
    return nullptr;
  }
  Locator& loc = it->second;
  std::shared_ptr<const Bytes> data = loc.it->data;
  loc.it->prefetched = false;
  // ARC: any resident hit promotes to the MRU end of T2 (seen >= twice).
  EntryList& from = loc.list == ListId::kT1 ? shard.t1 : shard.t2;
  if (loc.list == ListId::kT1) {
    shard.t1_bytes -= loc.it->size;
    shard.t2_bytes += loc.it->size;
  }
  shard.t2.splice(shard.t2.begin(), from, loc.it);
  loc.list = ListId::kT2;
  loc.it = shard.t2.begin();
  hits_->Increment();
  return data;
}

std::shared_ptr<const Bytes> ChunkCache::Peek(const Sha1Digest& id) const {
  if (!enabled()) {
    return nullptr;
  }
  const Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(id);
  if (it == shard.index.end() || it->second.list == ListId::kB1 ||
      it->second.list == ListId::kB2) {
    return nullptr;
  }
  return it->second.it->data;
}

void ChunkCache::Replace(Shard& shard, uint64_t need, bool ghost_hit_b2) {
  while (shard.t1_bytes + shard.t2_bytes + need > shard_budget_) {
    if (shard.t1.empty() && shard.t2.empty()) {
      break;  // `need` alone exceeds the budget; caller skips the insert
    }
    // ARC's REPLACE: evict from T1 while it exceeds the target p (a B2
    // ghost hit breaks the tie toward T1, making room on the frequency
    // side); otherwise from T2. Victims become ghosts so a re-reference
    // can still teach the adaptation.
    const bool from_t1 =
        !shard.t1.empty() &&
        (shard.t2.empty() || shard.t1_bytes > shard.p ||
         (ghost_hit_b2 && shard.t1_bytes == shard.p));
    EntryList& list = from_t1 ? shard.t1 : shard.t2;
    EntryList& ghosts = from_t1 ? shard.b1 : shard.b2;
    auto victim = std::prev(list.end());
    const uint64_t size = victim->size;
    victim->data.reset();
    if (std::exchange(victim->prefetched, false)) {
      prefetch_wasted_->Increment();
    }
    ghosts.splice(ghosts.begin(), list, victim);
    Locator& loc = shard.index.at(victim->id);
    loc.list = from_t1 ? ListId::kB1 : ListId::kB2;
    loc.it = ghosts.begin();
    if (from_t1) {
      shard.t1_bytes -= size;
      shard.b1_bytes += size;
    } else {
      shard.t2_bytes -= size;
      shard.b2_bytes += size;
    }
    evictions_->Increment();
    bytes_gauge_->Add(-static_cast<double>(size));
  }
  TrimGhosts(shard, shard.b1, shard.b1_bytes);
  TrimGhosts(shard, shard.b2, shard.b2_bytes);
}

void ChunkCache::TrimGhosts(Shard& shard, EntryList& list, uint64_t& bytes) {
  while (bytes > shard_budget_ && !list.empty()) {
    auto victim = std::prev(list.end());
    bytes -= victim->size;
    shard.index.erase(victim->id);
    list.erase(victim);
  }
}

void ChunkCache::Put(const Sha1Digest& id, std::shared_ptr<const Bytes> data,
                     bool prefetched) {
  if (!enabled() || data == nullptr) {
    return;
  }
  const uint64_t size = data->size();
  if (size == 0 || size > shard_budget_) {
    return;  // oversized entries would monopolize the shard
  }
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(id);
  if (it != shard.index.end()) {
    Locator& loc = it->second;
    const bool ghost_hit_b2 = loc.list == ListId::kB2;
    switch (loc.list) {
      case ListId::kT1:
      case ListId::kT2: {
        // Already resident: a re-insert is a second reference - promote,
        // keep the existing bytes (they hash to the same id by contract).
        if (!prefetched) {
          loc.it->prefetched = false;
        }
        EntryList& from = loc.list == ListId::kT1 ? shard.t1 : shard.t2;
        if (loc.list == ListId::kT1) {
          shard.t1_bytes -= loc.it->size;
          shard.t2_bytes += loc.it->size;
        }
        shard.t2.splice(shard.t2.begin(), from, loc.it);
        loc.list = ListId::kT2;
        loc.it = shard.t2.begin();
        return;
      }
      case ListId::kB1: {
        // Ghost hit in B1: recency would have kept it - grow p. The delta
        // is byte-weighted: an entry's worth of budget, scaled up when B2
        // dwarfs B1 (the standard |B2|/|B1| rule).
        const uint64_t delta =
            shard.b1_bytes >= shard.b2_bytes || shard.b1_bytes == 0
                ? size
                : size * (shard.b2_bytes / shard.b1_bytes);
        shard.p = std::min(shard_budget_, shard.p + delta);
        shard.b1_bytes -= loc.it->size;
        shard.b1.erase(loc.it);
        shard.index.erase(it);
        break;
      }
      case ListId::kB2: {
        const uint64_t delta =
            shard.b2_bytes >= shard.b1_bytes || shard.b2_bytes == 0
                ? size
                : size * (shard.b1_bytes / shard.b2_bytes);
        shard.p = shard.p > delta ? shard.p - delta : 0;
        shard.b2_bytes -= loc.it->size;
        shard.b2.erase(loc.it);
        shard.index.erase(it);
        break;
      }
    }
    // A ghost hit re-enters as a *frequent* entry (it was referenced,
    // evicted, referenced again): straight into T2.
    Replace(shard, size, ghost_hit_b2);
    shard.t2.push_front(Entry{id, std::move(data), size, prefetched});
    shard.t2_bytes += size;
    shard.index[id] = Locator{ListId::kT2, shard.t2.begin()};
    bytes_gauge_->Add(static_cast<double>(size));
    return;
  }

  // Brand-new entry. Standard ARC case IV, byte-weighted: when the
  // recency side (T1 + B1) is at budget, recycle B1 ghosts first; when
  // the whole directory is at twice the budget, recycle B2 ghosts.
  if (shard.t1_bytes + shard.b1_bytes + size > shard_budget_) {
    while (!shard.b1.empty() &&
           shard.t1_bytes + shard.b1_bytes + size > shard_budget_) {
      auto victim = std::prev(shard.b1.end());
      shard.b1_bytes -= victim->size;
      shard.index.erase(victim->id);
      shard.b1.erase(victim);
    }
  } else {
    const uint64_t directory = shard.t1_bytes + shard.t2_bytes +
                               shard.b1_bytes + shard.b2_bytes;
    while (!shard.b2.empty() && directory + size > 2 * shard_budget_ &&
           shard.b2_bytes > 0) {
      auto victim = std::prev(shard.b2.end());
      shard.b2_bytes -= victim->size;
      shard.index.erase(victim->id);
      shard.b2.erase(victim);
      break;  // one entry per insert, like the unit-cost algorithm
    }
  }
  Replace(shard, size, /*ghost_hit_b2=*/false);
  if (shard.t1_bytes + shard.t2_bytes + size > shard_budget_) {
    return;  // could not make room (budget smaller than the entry)
  }
  shard.t1.push_front(Entry{id, std::move(data), size, prefetched});
  shard.t1_bytes += size;
  shard.index[id] = Locator{ListId::kT1, shard.t1.begin()};
  bytes_gauge_->Add(static_cast<double>(size));
}

void ChunkCache::EraseLocked(Shard& shard, const Sha1Digest& id) {
  auto it = shard.index.find(id);
  if (it == shard.index.end()) {
    return;
  }
  const Locator loc = it->second;
  const uint64_t size = loc.it->size;
  if (loc.it->prefetched) {
    prefetch_wasted_->Increment();
  }
  switch (loc.list) {
    case ListId::kT1:
      shard.t1_bytes -= size;
      shard.t1.erase(loc.it);
      bytes_gauge_->Add(-static_cast<double>(size));
      break;
    case ListId::kT2:
      shard.t2_bytes -= size;
      shard.t2.erase(loc.it);
      bytes_gauge_->Add(-static_cast<double>(size));
      break;
    case ListId::kB1:
      shard.b1_bytes -= size;
      shard.b1.erase(loc.it);
      break;
    case ListId::kB2:
      shard.b2_bytes -= size;
      shard.b2.erase(loc.it);
      break;
  }
  shard.index.erase(it);
}

void ChunkCache::Invalidate(const Sha1Digest& id) {
  if (!enabled()) {
    return;
  }
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  EraseLocked(shard, id);
}

void ChunkCache::MarkUsed(const Sha1Digest& id) {
  if (!enabled()) {
    return;
  }
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (auto it = shard.index.find(id); it != shard.index.end()) {
    it->second.it->prefetched = false;
  }
}

void ChunkCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    bytes_gauge_->Add(
        -static_cast<double>(shard.t1_bytes + shard.t2_bytes));
    shard.t1.clear();
    shard.t2.clear();
    shard.b1.clear();
    shard.b2.clear();
    shard.index.clear();
    shard.t1_bytes = shard.t2_bytes = shard.b1_bytes = shard.b2_bytes = 0;
    shard.p = 0;
  }
}

ChunkCache::Stats ChunkCache::stats() const {
  Stats stats;
  stats.hits = hits_->value();
  stats.misses = misses_->value();
  stats.evictions = evictions_->value();
  stats.prefetch_wasted = prefetch_wasted_->value();
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.t1_bytes += shard.t1_bytes;
    stats.t2_bytes += shard.t2_bytes;
    stats.entries += shard.t1.size() + shard.t2.size();
    stats.ghost_entries += shard.b1.size() + shard.b2.size();
  }
  stats.bytes = stats.t1_bytes + stats.t2_bytes;
  return stats;
}

}  // namespace cyrus
