// Consistent-hash shard map for the gateway's metadata tier.
//
// The gateway splits metadata (chunk tables + version trees) into N shards
// keyed by consistent hashing over tenant-qualified file paths, reusing
// src/core/hash_ring: each shard owns a set of virtual points on the
// 64-bit ring and a path routes to the first shard point clockwise from
// SHA-1(path). On top of the raw ring the map adds:
//
//   - split: SplitShard(s) creates a new shard whose virtual points bisect
//     only s's arcs, so the new shard inherits roughly half of s's keyspace
//     and *no other shard's routing changes* (unlike a plain AddShard,
//     which peels ~1/N from everyone);
//   - merge: MergeShard(s) removes s; each of its arcs is absorbed by the
//     shard owning the next point clockwise - the standard consistent-hash
//     handoff;
//   - lazy migration: Route(path) remembers where a path's metadata last
//     lived. After a split/merge the first Route of an affected path
//     reports {from, to} so the caller can move the entry then, not in a
//     stop-the-world rebalance - the same lazy discipline CyrusClient uses
//     for shares after CSP removal (paper §5.5);
//   - serialization: the whole map (point layout + residency) round-trips
//     through the bounds-checked src/meta wire format, so a gateway can
//     persist and recover its routing state.
//
// Thread-compatible, not thread-safe: the gateway guards it with its own
// lock (routing is a few map lookups, far from contended).
#ifndef SRC_GATEWAY_SHARD_MAP_H_
#define SRC_GATEWAY_SHARD_MAP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/hash_ring.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace cyrus {

// One Route() answer.
struct ShardRoute {
  int shard = -1;        // where the path's metadata lives now
  bool migrated = false; // true when this call moved residency
  int moved_from = -1;   // previous shard when migrated
};

class ShardMap {
 public:
  // `virtual_points`: ring points created per AddShard (SplitShard derives
  // its own points from the victim's arcs).
  explicit ShardMap(uint32_t virtual_points = 64);

  // Adds a shard at name-derived ring points (consistent hashing peels
  // ~1/(N+1) of every existing shard's keyspace). Returns the shard id.
  Result<int> AddShard();

  // Splits `shard`: a new shard takes over the first half of each of the
  // victim's arcs. Returns the new shard id.
  Result<int> SplitShard(int shard);

  // Removes `shard`; its arcs merge into the clockwise successors. Fails
  // on the last shard (a map must keep at least one).
  Status MergeShard(int shard);

  // Shard owning `path` under the current ring, updating residency. If the
  // path's recorded residency predates a split/merge, the route reports the
  // migration (migrated=true, moved_from=old shard) exactly once.
  Result<ShardRoute> Route(std::string_view path);

  // Current ring owner of `path` without touching residency.
  Result<int> ShardFor(std::string_view path) const;

  size_t num_shards() const { return shard_ids_.size(); }
  std::vector<int> ShardIds() const { return shard_ids_; }

  // Wire form (versioned, bounds-checked).
  Bytes Serialize() const;
  static Result<ShardMap> Deserialize(ByteSpan data);

 private:
  uint32_t virtual_points_;
  int next_shard_id_ = 0;
  // unique_ptr: HashRing owns a mutex and cannot move, but ShardMap must
  // (Result<ShardMap> moves it out of Deserialize).
  std::unique_ptr<HashRing> ring_;
  std::vector<int> shard_ids_;
  // Explicit point layout per shard. The ring also tracks this internally,
  // but serialization needs it in a stable, rebuildable form.
  std::map<int, std::vector<uint64_t>> points_;
  // path -> shard whose metadata store currently holds it.
  std::map<std::string, int, std::less<>> residency_;
};

}  // namespace cyrus

#endif  // SRC_GATEWAY_SHARD_MAP_H_
