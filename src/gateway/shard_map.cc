#include "src/gateway/shard_map.h"

#include <algorithm>

#include "src/crypto/sha1.h"
#include "src/meta/serialize.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

constexpr uint32_t kMagic = 0x4359534d;  // "CYSM"
constexpr uint32_t kFormatVersion = 1;

std::string ShardName(int shard) { return StrCat("shard-", shard); }

uint64_t PathPoint(std::string_view path) { return Sha1::Hash(path).Prefix64(); }

}  // namespace

ShardMap::ShardMap(uint32_t virtual_points)
    : virtual_points_(virtual_points == 0 ? 1 : virtual_points),
      ring_(std::make_unique<HashRing>(virtual_points_)) {}

Result<int> ShardMap::AddShard() {
  const int id = next_shard_id_;
  CYRUS_RETURN_IF_ERROR(ring_->AddCsp(id, ShardName(id), /*cluster=*/-1));
  CYRUS_ASSIGN_OR_RETURN(std::vector<uint64_t> points, ring_->PointsOf(id));
  ++next_shard_id_;
  shard_ids_.push_back(id);
  points_.emplace(id, std::move(points));
  return id;
}

Result<int> ShardMap::SplitShard(int shard) {
  if (points_.count(shard) == 0) {
    return NotFoundError(StrCat("shard ", shard, " not in the map"));
  }
  // Bisect each of the victim's arcs: the victim's point p owns the arc
  // (prev, p]; placing a new point at the arc midpoint hands the first half
  // to the new shard and leaves every other shard's routing untouched.
  const std::vector<std::pair<uint64_t, int>> all = ring_->AllPoints();
  std::vector<uint64_t> midpoints;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].second != shard) {
      continue;
    }
    const uint64_t p = all[i].first;
    const uint64_t prev = i == 0 ? all.back().first : all[i - 1].first;
    const uint64_t arc = p - prev;  // mod-2^64 wrap is exactly what we want
    if (arc < 2) {
      continue;  // arc too narrow to bisect
    }
    midpoints.push_back(prev + arc / 2);
  }
  if (midpoints.empty()) {
    return FailedPreconditionError(
        StrCat("shard ", shard, " owns no arc wide enough to split"));
  }
  const int id = next_shard_id_;
  CYRUS_RETURN_IF_ERROR(
      ring_->AddCspAt(id, ShardName(id), /*cluster=*/-1, std::move(midpoints)));
  CYRUS_ASSIGN_OR_RETURN(std::vector<uint64_t> claimed, ring_->PointsOf(id));
  ++next_shard_id_;
  shard_ids_.push_back(id);
  points_.emplace(id, std::move(claimed));
  return id;
}

Status ShardMap::MergeShard(int shard) {
  if (points_.count(shard) == 0) {
    return NotFoundError(StrCat("shard ", shard, " not in the map"));
  }
  if (shard_ids_.size() <= 1) {
    return FailedPreconditionError("cannot merge away the last shard");
  }
  CYRUS_RETURN_IF_ERROR(ring_->RemoveCsp(shard));
  points_.erase(shard);
  shard_ids_.erase(std::find(shard_ids_.begin(), shard_ids_.end(), shard));
  // Residency entries still naming the merged shard migrate lazily on
  // their next Route().
  return OkStatus();
}

Result<ShardRoute> ShardMap::Route(std::string_view path) {
  CYRUS_ASSIGN_OR_RETURN(int target, ring_->OwnerOf(PathPoint(path)));
  ShardRoute route;
  route.shard = target;
  auto it = residency_.find(path);
  if (it == residency_.end()) {
    residency_.emplace(std::string(path), target);
    return route;
  }
  if (it->second != target) {
    route.migrated = true;
    route.moved_from = it->second;
    it->second = target;
  }
  return route;
}

Result<int> ShardMap::ShardFor(std::string_view path) const {
  return ring_->OwnerOf(PathPoint(path));
}

Bytes ShardMap::Serialize() const {
  BinaryWriter w;
  w.WriteU32(kMagic);
  w.WriteU32(kFormatVersion);
  w.WriteU32(virtual_points_);
  w.WriteI32(next_shard_id_);
  w.WriteU32(static_cast<uint32_t>(shard_ids_.size()));
  for (int id : shard_ids_) {
    const std::vector<uint64_t>& points = points_.at(id);
    w.WriteI32(id);
    w.WriteU32(static_cast<uint32_t>(points.size()));
    for (uint64_t point : points) {
      w.WriteU64(point);
    }
  }
  w.WriteU32(static_cast<uint32_t>(residency_.size()));
  for (const auto& [path, home] : residency_) {
    w.WriteString(path);
    w.WriteI32(home);
  }
  return w.TakeData();
}

Result<ShardMap> ShardMap::Deserialize(ByteSpan data) {
  BinaryReader r(data);
  CYRUS_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kMagic) {
    return DataLossError("shard map magic mismatch");
  }
  CYRUS_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kFormatVersion) {
    return DataLossError(StrCat("unsupported shard map version ", version));
  }
  CYRUS_ASSIGN_OR_RETURN(uint32_t virtual_points, r.ReadU32());
  ShardMap map(virtual_points);
  CYRUS_ASSIGN_OR_RETURN(map.next_shard_id_, r.ReadI32());
  CYRUS_ASSIGN_OR_RETURN(uint32_t num_shards, r.ReadU32());
  for (uint32_t i = 0; i < num_shards; ++i) {
    CYRUS_ASSIGN_OR_RETURN(int id, r.ReadI32());
    CYRUS_ASSIGN_OR_RETURN(uint32_t num_points, r.ReadU32());
    std::vector<uint64_t> points;
    points.reserve(num_points);
    for (uint32_t p = 0; p < num_points; ++p) {
      CYRUS_ASSIGN_OR_RETURN(uint64_t point, r.ReadU64());
      points.push_back(point);
    }
    CYRUS_RETURN_IF_ERROR(
        map.ring_->AddCspAt(id, ShardName(id), /*cluster=*/-1, points));
    map.shard_ids_.push_back(id);
    map.points_.emplace(id, std::move(points));
  }
  CYRUS_ASSIGN_OR_RETURN(uint32_t num_resident, r.ReadU32());
  for (uint32_t i = 0; i < num_resident; ++i) {
    CYRUS_ASSIGN_OR_RETURN(std::string path, r.ReadString());
    CYRUS_ASSIGN_OR_RETURN(int home, r.ReadI32());
    map.residency_.emplace(std::move(path), home);
  }
  if (!r.AtEnd()) {
    return DataLossError("trailing bytes after shard map");
  }
  return map;
}

}  // namespace cyrus
