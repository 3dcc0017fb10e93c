// The synchronization service (paper §5.4): keeps a local folder and the
// CYRUS cloud converged without client-to-client communication.
//
// The prototype watches a local directory; here LocalWorkspace models that
// directory (an in-memory file map with modification times and tombstones)
// so the sync logic is fully testable under virtual time. Each sync pass:
//   1. pulls new metadata from the CSPs (change detection at the cloud is
//      "look for new metadata objects", paper §5.4);
//   2. pushes locally created/edited files (new versions; deletions become
//      deletion markers);
//   3. pulls remote updates into the workspace;
//   4. detects conflicts and - under the auto policy - resolves them by
//      keeping the newest head and renaming the losers, so no edit is lost.
// Periodic operation plugs into the discrete-event queue.
#ifndef SRC_CORE_SYNC_SERVICE_H_
#define SRC_CORE_SYNC_SERVICE_H_

#include <map>
#include <string>

#include "src/core/client.h"
#include "src/sim/event_queue.h"

namespace cyrus {

// A local folder stand-in. Writes through the workspace mark files dirty;
// writes performed by the sync service itself do not.
class LocalWorkspace {
 public:
  // User-visible operations (what a file watcher would observe).
  void WriteFile(std::string_view name, Bytes content, double mtime);
  Result<Bytes> ReadFile(std::string_view name) const;
  // Returns kNotFound if the file does not exist locally.
  Status DeleteFile(std::string_view name, double mtime);

  bool Exists(std::string_view name) const;
  std::vector<std::string> FileNames() const;
  // The content hash recorded when `name` last synced; kNotFound for a
  // file that never has.
  Result<Sha1Digest> SyncedContentId(std::string_view name) const;

 private:
  friend class SyncService;

  struct LocalFile {
    Bytes content;
    double mtime = 0.0;
    bool dirty = false;            // locally modified since last sync
    bool tombstone = false;        // locally deleted, deletion not yet pushed
    bool ever_synced = false;
    Sha1Digest synced_content_id;  // content hash at last sync
  };
  std::map<std::string, LocalFile, std::less<>> files_;
};

enum class ConflictPolicy {
  kReportOnly,   // surface conflicts in SyncStats, change nothing
  kAutoResolve,  // keep the newest head, rename losing heads (paper's UI
                 // prompts the user; auto-rename is the lossless default)
};

struct SyncOptions {
  ConflictPolicy conflict_policy = ConflictPolicy::kAutoResolve;
  double interval_seconds = 30.0;  // periodic cadence under an EventQueue
};

struct SyncStats {
  size_t uploads = 0;
  size_t downloads = 0;
  size_t deletes_pushed = 0;
  size_t deletes_pulled = 0;
  size_t conflicts_detected = 0;
  size_t conflicts_resolved = 0;

  void Accumulate(const SyncStats& other);
};

class SyncService {
 public:
  // Borrows both; they must outlive the service.
  SyncService(CyrusClient* client, LocalWorkspace* workspace, SyncOptions options = {});

  // One full sync pass at the client's current virtual time.
  Result<SyncStats> RunOnce();

  // Schedules RunOnce every options.interval_seconds on the queue, driving
  // the client's virtual clock from queue time. Runs until Stop().
  void Start(EventQueue* queue);
  void Stop() { running_ = false; }
  bool running() const { return running_; }

  // Totals across all passes since construction.
  const SyncStats& lifetime_stats() const { return lifetime_; }

 private:
  void ScheduleNext(EventQueue* queue);

  CyrusClient* client_;
  LocalWorkspace* workspace_;
  SyncOptions options_;
  SyncStats lifetime_;
  bool running_ = false;
};

}  // namespace cyrus

#endif  // SRC_CORE_SYNC_SERVICE_H_
