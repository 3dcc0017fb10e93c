#include "src/meta/version_tree.h"

#include <algorithm>
#include <set>

#include "src/util/strings.h"

namespace cyrus {

Status VersionTree::Insert(const FileVersion& version) {
  auto it = nodes_.find(version.id);
  if (it != nodes_.end()) {
    // Content-addressed: same id must mean same metadata.
    if (it->second.Serialize() != version.Serialize()) {
      return AlreadyExistsError(
          StrCat("version ", version.id.ToHex(), " already exists with different content"));
    }
    return OkStatus();
  }
  nodes_.emplace(version.id, version);
  by_name_.emplace(version.file_name, version.id);
  if (!IsNullDigest(version.prev_id)) {
    children_.emplace(version.prev_id, version.id);
  }
  return OkStatus();
}

bool VersionTree::Contains(const Sha1Digest& id) const { return nodes_.count(id) > 0; }

const FileVersion* VersionTree::Find(const Sha1Digest& id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::vector<const FileVersion*> VersionTree::Heads(std::string_view file_name) const {
  // Walk the name index, keeping only childless versions. Sorted by id to
  // match the historical nodes_-scan order (callers render conflict lists
  // from this).
  std::vector<Sha1Digest> ids;
  auto [begin, end] = by_name_.equal_range(file_name);
  for (auto it = begin; it != end; ++it) {
    if (children_.find(it->second) == children_.end()) {
      ids.push_back(it->second);
    }
  }
  std::sort(ids.begin(), ids.end());
  std::vector<const FileVersion*> out;
  out.reserve(ids.size());
  for (const Sha1Digest& id : ids) {
    out.push_back(Find(id));
  }
  return out;
}

std::vector<const FileVersion*> VersionTree::LiveHeads(std::string_view file_name) const {
  std::vector<const FileVersion*> live = Heads(file_name);
  std::erase_if(live, [](const FileVersion* head) { return head->deleted; });
  return live;
}

const FileVersion* VersionTree::Newest(const std::vector<const FileVersion*>& heads) {
  const FileVersion* newest = nullptr;
  for (const FileVersion* head : heads) {
    if (newest == nullptr || head->modified_time > newest->modified_time ||
        (head->modified_time == newest->modified_time && head->id > newest->id)) {
      newest = head;
    }
  }
  return newest;
}

std::optional<Conflict> VersionTree::LiveHeadConflict(
    std::string_view file_name, const std::vector<const FileVersion*>& live_heads) {
  if (live_heads.size() < 2) {
    return std::nullopt;
  }
  bool all_roots = true;
  std::vector<Sha1Digest> ids;
  for (const FileVersion* head : live_heads) {
    all_roots &= IsNullDigest(head->prev_id);
    ids.push_back(head->id);
  }
  return Conflict{all_roots ? ConflictType::kSameName : ConflictType::kDivergedVersions,
                  std::string(file_name), std::move(ids)};
}

Result<std::vector<const FileVersion*>> VersionTree::History(const Sha1Digest& id) const {
  std::vector<const FileVersion*> out;
  const FileVersion* node = Find(id);
  if (node == nullptr) {
    return NotFoundError(StrCat("unknown version ", id.ToHex()));
  }
  std::set<Sha1Digest> seen;  // defends against (corrupt) parent cycles
  while (node != nullptr) {
    if (!seen.insert(node->id).second) {
      return DataLossError("cycle in version history");
    }
    out.push_back(node);
    if (IsNullDigest(node->prev_id)) {
      break;
    }
    node = Find(node->prev_id);
  }
  return out;
}

std::vector<std::string> VersionTree::FileNames(bool include_deleted) const {
  // One pass over the name index (already name-ascending); a name is live
  // if any childless version of it is non-deleted.
  std::vector<std::string> out;
  for (auto it = by_name_.begin(); it != by_name_.end();) {
    auto range_end = by_name_.upper_bound(it->first);
    bool live = include_deleted;
    for (auto jt = it; !live && jt != range_end; ++jt) {
      live = children_.find(jt->second) == children_.end() &&
             !Find(jt->second)->deleted;
    }
    if (live) {
      out.push_back(it->first);
    }
    it = range_end;
  }
  return out;
}

std::vector<const FileVersion*> VersionTree::AllVersions() const {
  std::vector<const FileVersion*> out;
  out.reserve(nodes_.size());
  for (const auto& [id, version] : nodes_) {
    out.push_back(&version);
  }
  return out;
}

}  // namespace cyrus
