#include "src/core/put_journal.h"

#include <utility>

#include "src/util/hex.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

std::string HexOf(std::string_view text) { return HexEncode(AsByteSpan(text)); }

Result<std::string> UnhexToString(std::string_view hex) {
  CYRUS_ASSIGN_OR_RETURN(Bytes bytes, HexDecode(hex));
  return std::string(bytes.begin(), bytes.end());
}

std::string IntentRecord(const std::string& version_id, const std::string& file_name) {
  return StrCat("I ", version_id, " ", HexOf(file_name));
}

std::string ShareRecord(const std::string& version_id, const JournalShare& share) {
  return StrCat("S ", version_id, " ", HexOf(share.csp_name), " ",
                HexOf(share.object_name));
}

std::string MetadataRecord(const std::string& version_id, ByteSpan meta_wire) {
  return StrCat("M ", version_id, " ", HexEncode(meta_wire));
}

}  // namespace

Result<std::unique_ptr<PutJournal>> PutJournal::Open(std::string path) {
  if (path.empty()) {
    return InvalidArgumentError("journal path must not be empty");
  }
  std::unique_ptr<PutJournal> journal(new PutJournal(std::move(path)));
  CYRUS_RETURN_IF_ERROR(journal->log_.Replay(
      [&journal](std::string_view line) { return journal->ApplyLine(line); }));
  std::vector<std::string> records;
  for (const auto& [seq, intent] : journal->pending_) {
    records.push_back(IntentRecord(intent.version_id, intent.file_name));
    for (const JournalShare& share : intent.shares) {
      records.push_back(ShareRecord(intent.version_id, share));
    }
    if (intent.has_metadata) {
      records.push_back(MetadataRecord(intent.version_id, intent.meta_wire));
    }
  }
  CYRUS_RETURN_IF_ERROR(journal->log_.Compact(records));
  return journal;
}

Status PutJournal::ApplyLine(std::string_view line) {
  const std::vector<std::string> fields = Split(line, ' ');
  if (fields.size() < 2) {
    return DataLossError(StrCat("journal: malformed record '", line, "'"));
  }
  const std::string& tag = fields[0];
  const std::string& id = fields[1];
  if (tag == "I") {
    if (fields.size() != 3) {
      return DataLossError("journal: malformed I record");
    }
    CYRUS_ASSIGN_OR_RETURN(std::string file_name, UnhexToString(fields[2]));
    JournalIntent intent;
    intent.version_id = id;
    intent.file_name = std::move(file_name);
    const uint64_t seq = next_seq_++;
    pending_[seq] = std::move(intent);
    by_id_[id] = seq;
    return OkStatus();
  }
  auto seq_it = by_id_.find(id);
  if (seq_it == by_id_.end()) {
    // Record for an already-compacted (committed) intent; stale but
    // harmless.
    return OkStatus();
  }
  JournalIntent& intent = pending_[seq_it->second];
  if (tag == "S") {
    if (fields.size() != 4) {
      return DataLossError("journal: malformed S record");
    }
    JournalShare share;
    CYRUS_ASSIGN_OR_RETURN(share.csp_name, UnhexToString(fields[2]));
    CYRUS_ASSIGN_OR_RETURN(share.object_name, UnhexToString(fields[3]));
    intent.shares.push_back(std::move(share));
    return OkStatus();
  }
  if (tag == "M") {
    if (fields.size() != 3) {
      return DataLossError("journal: malformed M record");
    }
    CYRUS_ASSIGN_OR_RETURN(intent.meta_wire, HexDecode(fields[2]));
    intent.has_metadata = true;
    return OkStatus();
  }
  if (tag == "C") {
    pending_.erase(seq_it->second);
    by_id_.erase(seq_it);
    return OkStatus();
  }
  return DataLossError(StrCat("journal: unknown record tag '", tag, "'"));
}

Status PutJournal::BeginIntent(const std::string& version_id,
                               const std::string& file_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (by_id_.count(version_id) > 0) {
    // Same content re-Put after an earlier in-flight attempt; keep the
    // original intent (its share records are still valid).
    return OkStatus();
  }
  CYRUS_RETURN_IF_ERROR(log_.Append(IntentRecord(version_id, file_name)));
  JournalIntent intent;
  intent.version_id = version_id;
  intent.file_name = file_name;
  const uint64_t seq = next_seq_++;
  pending_[seq] = std::move(intent);
  by_id_[version_id] = seq;
  return OkStatus();
}

Status PutJournal::AppendShare(const std::string& version_id,
                               const std::string& csp_name,
                               const std::string& object_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_id_.find(version_id);
  if (it == by_id_.end()) {
    return FailedPreconditionError(StrCat("journal: no intent ", version_id));
  }
  JournalShare share{csp_name, object_name};
  CYRUS_RETURN_IF_ERROR(log_.Append(ShareRecord(version_id, share)));
  pending_[it->second].shares.push_back(std::move(share));
  return OkStatus();
}

Status PutJournal::RecordMetadata(const std::string& version_id, ByteSpan meta_wire) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_id_.find(version_id);
  if (it == by_id_.end()) {
    return FailedPreconditionError(StrCat("journal: no intent ", version_id));
  }
  CYRUS_RETURN_IF_ERROR(log_.Append(MetadataRecord(version_id, meta_wire)));
  JournalIntent& intent = pending_[it->second];
  intent.meta_wire.assign(meta_wire.begin(), meta_wire.end());
  intent.has_metadata = true;
  return OkStatus();
}

Status PutJournal::Commit(const std::string& version_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_id_.find(version_id);
  if (it == by_id_.end()) {
    return OkStatus();  // idempotent: already committed and compacted
  }
  CYRUS_RETURN_IF_ERROR(log_.Append(StrCat("C ", version_id)));
  pending_.erase(it->second);
  by_id_.erase(it);
  return OkStatus();
}

std::vector<JournalIntent> PutJournal::PendingIntents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JournalIntent> out;
  out.reserve(pending_.size());
  for (const auto& [seq, intent] : pending_) {
    out.push_back(intent);
  }
  return out;
}

}  // namespace cyrus
