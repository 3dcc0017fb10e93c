// Write-intent journal making Put crash-safe.
//
// A Put scatters shares to CSPs *before* publishing the version's metadata
// object. If the client dies in between, the shares are orphans: no
// metadata references them, no later session knows they exist, and they
// leak at the providers forever. The journal closes that window with a
// local append-only log:
//
//   I <version-id> <file-name>          intent opened, shares may follow
//   S <version-id> <csp-name> <object>  one share object landed durably
//   M <version-id> <wire-metadata>      all shares landed; metadata built
//   C <version-id>                      metadata published; intent closed
//
// On the next start, RecoverJournal() (CyrusClient) replays pending
// intents: an intent with an M record is rolled *forward* (the metadata
// blob is re-published - the shares are already durable), one without is
// rolled *back* (every journaled share object that no committed chunk
// references is deleted from its CSP). CSPs are recorded by stable
// connector name, not registry index, because the recovering session may
// register accounts in a different order.
//
// Variable fields are hex-encoded so the format survives spaces and
// binary metadata. The bytes on disk are a RecordLog (src/util/record_log.h):
// each record is durable (written and fsync'd) before the caller proceeds,
// a record counts only once its newline is on disk (a torn final line is
// dropped on replay), and a failed write is an error, never silently
// ignored. Open() compacts committed intents away.
#ifndef SRC_CORE_PUT_JOURNAL_H_
#define SRC_CORE_PUT_JOURNAL_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/record_log.h"
#include "src/util/result.h"

namespace cyrus {

struct JournalShare {
  std::string csp_name;     // stable connector id, e.g. "dropbox"
  std::string object_name;  // share object name at that CSP
};

struct JournalIntent {
  std::string version_id;  // hex version digest
  std::string file_name;
  std::vector<JournalShare> shares;
  Bytes meta_wire;         // serialized wire-form FileVersion (may be empty)
  bool has_metadata = false;
};

class PutJournal {
 public:
  // Opens (creating if absent) the journal at `path`, loads pending
  // intents, and compacts committed ones away. Fails on an unwritable
  // path or a corrupt record.
  static Result<std::unique_ptr<PutJournal>> Open(std::string path);

  // Each mutator appends one durable record (write + fsync) and fails with
  // kUnavailable, changing nothing, if the record did not reach the disk.
  Status BeginIntent(const std::string& version_id, const std::string& file_name);
  Status AppendShare(const std::string& version_id, const std::string& csp_name,
                     const std::string& object_name);
  Status RecordMetadata(const std::string& version_id, ByteSpan meta_wire);
  Status Commit(const std::string& version_id);

  // Intents without a C record, oldest first. Used by crash recovery.
  std::vector<JournalIntent> PendingIntents() const;

  const std::string& path() const { return log_.path(); }

 private:
  explicit PutJournal(std::string path) : log_(std::move(path)) {}

  // Parses one journal line into pending_; kDataLoss on malformed input.
  Status ApplyLine(std::string_view line);

  mutable std::mutex mutex_;
  RecordLog log_;
  // Insertion-ordered: map key is a sequence number so recovery replays
  // intents oldest-first.
  std::map<uint64_t, JournalIntent> pending_;
  std::map<std::string, uint64_t> by_id_;
  uint64_t next_seq_ = 0;
};

}  // namespace cyrus

#endif  // SRC_CORE_PUT_JOURNAL_H_
