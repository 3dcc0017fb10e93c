// One durable record log for the client state CYRUS keeps on local disk:
// the Put intent journal (src/core/put_journal.h), the ShareIndex WAL
// (src/dedup/share_index.h) and, through ReplaceFileAtomically, the local
// metadata cache file (src/core/local_cache.h). Callers own the record
// grammar, the in-memory state and the lock; this module owns the bytes on
// disk.
//
// A log is a file of text records, one per line. The rules:
//
//   - A record counts only once its '\n' is on disk. Append writes the
//     record and its newline, then fsyncs, so bytes after the last newline
//     were never acknowledged (a crash cut the append short) and Replay
//     drops them even if they would parse.
//   - Every write result is checked. Append and Compact return kUnavailable
//     on any failed step. A failed Append cuts the file back to its last
//     complete record, so the next Append does not glue onto a torn tail;
//     a failed Compact leaves the previous file in place.
//   - Compact rewrites the file whole: write a sibling "<path>.tmp", fsync
//     it, rename it over the log, fsync the parent directory (otherwise a
//     crash can resurface the old file), then reopen for Append.
//
// RecordLog has no lock of its own: callers serialize Append and Compact.
#ifndef SRC_UTIL_RECORD_LOG_H_
#define SRC_UTIL_RECORD_LOG_H_

#include <sys/types.h>

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace cyrus {

// Replaces `path` with `data` so that a crash leaves either the old file or
// the new one, never a mix: tmp write, fsync, rename, parent-dir fsync. On
// failure the old file is untouched and the tmp file is removed.
Status ReplaceFileAtomically(const std::string& path, ByteSpan data);

class RecordLog {
 public:
  explicit RecordLog(std::string path);
  ~RecordLog();
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  // Calls `apply` on every complete, non-empty record, oldest first, and
  // returns its first error. A missing file holds no records.
  Status Replay(const std::function<Status(std::string_view)>& apply) const;

  // Atomically replaces the file with `records` (one line each) and opens
  // it for Append.
  Status Compact(const std::vector<std::string>& records);

  // Durably appends one record, which must not contain '\n'. Requires a
  // successful Compact first.
  Status Append(std::string_view record);

  const std::string& path() const { return path_; }

 private:
  const std::string path_;
  int fd_ = -1;
  off_t size_ = 0;  // bytes of complete records in the file
};

}  // namespace cyrus

#endif  // SRC_UTIL_RECORD_LOG_H_
