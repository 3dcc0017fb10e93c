// The client's view of its CSP accounts (paper §3.2, §5.5).
//
// Each entry couples a connector with a network profile (RTT, up/down
// bandwidth - what the client's local measurements would provide) and a
// platform cluster id from the §4.1 clustering. Entries move between
// active / failed / removed states: failures are detected by upload errors
// and probed periodically; removal triggers lazy share migration in the
// core client.
//
// Thread-safe: the pipelined transfer engine reads states and connectors
// from pool threads while the failover path flips states concurrently.
// Each call is atomic; read-modify-write sequences (e.g. "if active then
// fail") are serialized by the client's topology mutex, not here.
#ifndef SRC_CLOUD_REGISTRY_H_
#define SRC_CLOUD_REGISTRY_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cloud/connector.h"
#include "src/util/result.h"

namespace cyrus {

struct CspProfile {
  double rtt_ms = 100.0;
  double download_bytes_per_sec = 1e6;
  double upload_bytes_per_sec = 1e6;
  // Platform cluster from routing-tree clustering; CSPs sharing a cluster
  // never hold two shares of one chunk when cluster-aware placement is on.
  int cluster = -1;
};

enum class CspState {
  kActive,
  kFailed,   // temporarily unreachable; probed for recovery
  kRemoved,  // user removed the account; shares migrate lazily
};

class CspRegistry {
 public:
  // Adds a CSP account; returns its stable index.
  int Add(std::shared_ptr<CloudConnector> connector, CspProfile profile);

  size_t size() const;

  Result<CloudConnector*> connector(int index) const;
  Result<CspProfile> profile(int index) const;
  Result<CspState> state(int index) const;
  // True when `index` names a CSP in the active state.
  bool IsActive(int index) const;
  Result<std::string> name(int index) const;

  Status SetState(int index, CspState state);
  Status SetProfile(int index, CspProfile profile);

  // Indices of CSPs in the active state, ascending.
  std::vector<int> ActiveIndices() const;

  // Registry index of the CSP whose connector id equals `name`, regardless
  // of state; kNotFound if this client has no such account. Used to remap
  // metadata written by other clients (registry indices are client-local).
  Result<int> IndexByName(std::string_view name) const;

  // Number of distinct platform clusters among active CSPs (unclustered
  // CSPs count individually). This caps n when cluster-aware placement is
  // enabled (paper §4.1: at most one share per cluster).
  size_t NumActiveClusters() const;

 private:
  struct Entry {
    std::shared_ptr<CloudConnector> connector;
    CspProfile profile;
    CspState state = CspState::kActive;
  };

  // Requires mutex_ held.
  Status CheckIndex(int index) const;

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace cyrus

#endif  // SRC_CLOUD_REGISTRY_H_
