#include "src/core/sync_service.h"

#include <set>

#include "src/util/strings.h"

namespace cyrus {

void LocalWorkspace::WriteFile(std::string_view name, Bytes content, double mtime) {
  LocalFile& file = files_[std::string(name)];
  file.content = std::move(content);
  file.mtime = mtime;
  file.dirty = true;
  file.tombstone = false;
}

Result<Bytes> LocalWorkspace::ReadFile(std::string_view name) const {
  auto it = files_.find(name);
  if (it == files_.end() || it->second.tombstone) {
    return NotFoundError(StrCat("no local file ", name));
  }
  return it->second.content;
}

Status LocalWorkspace::DeleteFile(std::string_view name, double mtime) {
  auto it = files_.find(name);
  if (it == files_.end() || it->second.tombstone) {
    return NotFoundError(StrCat("no local file ", name));
  }
  if (!it->second.ever_synced) {
    files_.erase(it);  // never reached the cloud: just forget it
    return OkStatus();
  }
  it->second.tombstone = true;
  it->second.dirty = true;
  it->second.mtime = mtime;
  it->second.content.clear();
  return OkStatus();
}

bool LocalWorkspace::Exists(std::string_view name) const {
  auto it = files_.find(name);
  return it != files_.end() && !it->second.tombstone;
}

std::vector<std::string> LocalWorkspace::FileNames() const {
  std::vector<std::string> out;
  for (const auto& [name, file] : files_) {
    if (!file.tombstone) {
      out.push_back(name);
    }
  }
  return out;
}

Result<Sha1Digest> LocalWorkspace::SyncedContentId(std::string_view name) const {
  auto it = files_.find(name);
  if (it == files_.end() || !it->second.ever_synced) {
    return NotFoundError(StrCat("local file ", name, " never synced"));
  }
  return it->second.synced_content_id;
}

void SyncStats::Accumulate(const SyncStats& other) {
  uploads += other.uploads;
  downloads += other.downloads;
  deletes_pushed += other.deletes_pushed;
  deletes_pulled += other.deletes_pulled;
  conflicts_detected += other.conflicts_detected;
  conflicts_resolved += other.conflicts_resolved;
}

SyncService::SyncService(CyrusClient* client, LocalWorkspace* workspace,
                         SyncOptions options)
    : client_(client), workspace_(workspace), options_(options) {}

Result<SyncStats> SyncService::RunOnce() {
  SyncStats stats;

  // 1. Push local changes first, against the *stale* local tree - exactly
  //    what a real client racing other devices does (Algorithm 2 reads the
  //    head locally). Pulling first would silently linearize concurrent
  //    edits instead of surfacing them as conflicts.
  for (auto& [name, file] : workspace_->files_) {
    if (!file.dirty) {
      continue;
    }
    if (file.tombstone) {
      Status deleted = client_->Delete(name);
      if (deleted.ok() || deleted.code() == StatusCode::kNotFound) {
        file.dirty = false;
        ++stats.deletes_pushed;
      }
      continue;
    }
    CYRUS_ASSIGN_OR_RETURN(PutResult put, client_->Put(name, file.content));
    file.dirty = false;
    file.ever_synced = true;
    file.synced_content_id = put.content_id;
    if (!put.unchanged) {
      ++stats.uploads;
    }
  }

  // 2. Pull metadata: new versions uploaded by other clients (and any
  //    sibling versions the pushes above created) become visible.
  CYRUS_ASSIGN_OR_RETURN(std::vector<Conflict> sync_conflicts, client_->SyncMetadata());

  // 3. Detect conflicts across all names and optionally resolve them by
  //    keeping the newest live head (losers are renamed, not dropped).
  for (const std::string& name : client_->tree().FileNames()) {
    const std::vector<const FileVersion*> live = client_->tree().LiveHeads(name);
    if (live.size() < 2) {
      continue;
    }
    ++stats.conflicts_detected;
    if (options_.conflict_policy != ConflictPolicy::kAutoResolve) {
      continue;
    }
    CYRUS_RETURN_IF_ERROR(
        client_->ResolveConflict(name, VersionTree::Newest(live)->id));
    ++stats.conflicts_resolved;
  }
  (void)sync_conflicts;  // the full rescan above covers these

  // 4. Pull remote state into the workspace: new files, newer versions,
  //    and deletions performed elsewhere.
  CYRUS_ASSIGN_OR_RETURN(std::vector<FileListing> remote, client_->List(""));
  std::set<std::string> remote_names;
  for (const FileListing& listing : remote) {
    remote_names.insert(listing.name);
    auto it = workspace_->files_.find(listing.name);
    if (it != workspace_->files_.end() && it->second.dirty) {
      continue;  // local change takes precedence until the next pass
    }
    // Skip the download when the local copy already matches the head.
    const std::vector<const FileVersion*> live = client_->tree().LiveHeads(listing.name);
    if (live.size() != 1) {
      continue;  // conflicted and policy is report-only
    }
    const Sha1Digest latest_content = live.front()->content_id;
    if (it != workspace_->files_.end() && !it->second.tombstone &&
        it->second.synced_content_id == latest_content) {
      continue;
    }
    CYRUS_ASSIGN_OR_RETURN(GetResult get, client_->Get(listing.name));
    LocalWorkspace::LocalFile& file = workspace_->files_[listing.name];
    file.content = std::move(get.content);
    file.mtime = listing.modified_time;
    file.dirty = false;
    file.tombstone = false;
    file.ever_synced = true;
    file.synced_content_id = latest_content;
    ++stats.downloads;
  }
  // Remote deletions: synced local files whose name vanished from the
  // cloud listing (deleted by another client).
  for (auto& [name, file] : workspace_->files_) {
    if (!file.tombstone && !file.dirty && file.ever_synced &&
        remote_names.count(name) == 0) {
      file.tombstone = true;
      file.content.clear();
      ++stats.deletes_pulled;
    }
  }

  lifetime_.Accumulate(stats);
  return stats;
}

void SyncService::Start(EventQueue* queue) {
  running_ = true;
  ScheduleNext(queue);
}

void SyncService::ScheduleNext(EventQueue* queue) {
  queue->ScheduleAfter(options_.interval_seconds, [this, queue] {
    if (!running_) {
      return;
    }
    client_->set_time(queue->now());
    (void)RunOnce();  // periodic passes tolerate transient CSP errors
    ScheduleNext(queue);
  });
}

}  // namespace cyrus
