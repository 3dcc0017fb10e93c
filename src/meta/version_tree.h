// The metadata version tree (paper §5.2, §5.4, Figures 6 and 8).
//
// All versions of all files form a forest under a dummy root: new files are
// first-level nodes, edits hang off their parent version. Because clients
// upload without locking, a file name can end up with several live
// (undeleted, childless) heads. That is a conflict, of one of two kinds:
//   1. same-name conflict: every live head is parentless - independent
//      creations of one name;
//   2. diverged-version conflict: otherwise - concurrent edits of a common
//      history.
// A resolved conflict has one live head again, so it stops being reported.
#ifndef SRC_META_VERSION_TREE_H_
#define SRC_META_VERSION_TREE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/meta/metadata.h"
#include "src/util/result.h"

namespace cyrus {

enum class ConflictType {
  kSameName,          // Figure 8, left: independent creations collide
  kDivergedVersions,  // Figure 8, right: concurrent edits of one parent
};

struct Conflict {
  ConflictType type;
  std::string file_name;
  // The sibling version ids involved (>= 2 entries).
  std::vector<Sha1Digest> versions;
};

// Versions never change after Insert; share layouts live in the chunk
// table.
class VersionTree {
 public:
  // Inserts a version node. Inserting an id already present is a no-op if
  // the content matches and kAlreadyExists if it differs (ids are content
  // hashes, so a mismatch means corruption).
  Status Insert(const FileVersion& version);

  bool Contains(const Sha1Digest& id) const;
  const FileVersion* Find(const Sha1Digest& id) const;
  size_t size() const { return nodes_.size(); }

  // Leaf versions for a file name: versions with no children, following
  // either creation roots or edit chains. Deleted leaves are included
  // (the caller decides how to treat deletion markers).
  std::vector<const FileVersion*> Heads(std::string_view file_name) const;

  // Heads() without deletion markers, in id order.
  std::vector<const FileVersion*> LiveHeads(std::string_view file_name) const;

  // The head a reader sees: the latest modified_time, a tie going to the
  // larger id. Null when `heads` is empty.
  static const FileVersion* Newest(const std::vector<const FileVersion*>& heads);

  // The conflict `live_heads` (LiveHeads(file_name)) form, if there are
  // several: kSameName when all are parentless, kDivergedVersions
  // otherwise.
  static std::optional<Conflict> LiveHeadConflict(
      std::string_view file_name, const std::vector<const FileVersion*>& live_heads);

  // Version chain from `id` back to its creation (newest first).
  Result<std::vector<const FileVersion*>> History(const Sha1Digest& id) const;

  // Distinct file names, ascending; names whose every head is deleted are
  // excluded unless include_deleted.
  std::vector<std::string> FileNames(bool include_deleted = false) const;

  // All versions (arbitrary order), for sync-service diffing.
  std::vector<const FileVersion*> AllVersions() const;

 private:
  std::map<Sha1Digest, FileVersion> nodes_;
  std::multimap<Sha1Digest, Sha1Digest> children_;  // parent -> child
  // name -> every version of that name. Heads()/FileNames() walk this index
  // instead of scanning nodes_ (a shard serving many files pays O(file's
  // versions), not O(tree)).
  std::multimap<std::string, Sha1Digest, std::less<>> by_name_;
};

}  // namespace cyrus

#endif  // SRC_META_VERSION_TREE_H_
