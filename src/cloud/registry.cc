#include "src/cloud/registry.h"

#include <set>

#include "src/util/strings.h"

namespace cyrus {

int CspRegistry::Add(std::shared_ptr<CloudConnector> connector, CspProfile profile) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.push_back(Entry{std::move(connector), profile, CspState::kActive});
  return static_cast<int>(entries_.size()) - 1;
}

size_t CspRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

Status CspRegistry::CheckIndex(int index) const {
  if (index < 0 || static_cast<size_t>(index) >= entries_.size()) {
    return InvalidArgumentError(StrCat("CSP index ", index, " out of range"));
  }
  return OkStatus();
}

Result<CloudConnector*> CspRegistry::connector(int index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  CYRUS_RETURN_IF_ERROR(CheckIndex(index));
  // The pointer stays valid after the lock drops: entries are never erased
  // (removal is a state change) and the connector object is shared-owned.
  return entries_[index].connector.get();
}

Result<CspProfile> CspRegistry::profile(int index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  CYRUS_RETURN_IF_ERROR(CheckIndex(index));
  return entries_[index].profile;
}

Result<CspState> CspRegistry::state(int index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  CYRUS_RETURN_IF_ERROR(CheckIndex(index));
  return entries_[index].state;
}

bool CspRegistry::IsActive(int index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return CheckIndex(index).ok() && entries_[index].state == CspState::kActive;
}

Result<std::string> CspRegistry::name(int index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  CYRUS_RETURN_IF_ERROR(CheckIndex(index));
  return std::string(entries_[index].connector->id());
}

Status CspRegistry::SetState(int index, CspState state) {
  std::lock_guard<std::mutex> lock(mutex_);
  CYRUS_RETURN_IF_ERROR(CheckIndex(index));
  entries_[index].state = state;
  return OkStatus();
}

Status CspRegistry::SetProfile(int index, CspProfile profile) {
  std::lock_guard<std::mutex> lock(mutex_);
  CYRUS_RETURN_IF_ERROR(CheckIndex(index));
  entries_[index].profile = profile;
  return OkStatus();
}

Result<int> CspRegistry::IndexByName(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].connector->id() == name) {
      return static_cast<int>(i);
    }
  }
  return NotFoundError(StrCat("no CSP account named ", name));
}

std::vector<int> CspRegistry::ActiveIndices() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].state == CspState::kActive) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

size_t CspRegistry::NumActiveClusters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::set<int> clusters;
  size_t unclustered = 0;
  for (const Entry& e : entries_) {
    if (e.state != CspState::kActive) {
      continue;
    }
    if (e.profile.cluster >= 0) {
      clusters.insert(e.profile.cluster);
    } else {
      ++unclustered;
    }
  }
  return clusters.size() + unclustered;
}

}  // namespace cyrus
