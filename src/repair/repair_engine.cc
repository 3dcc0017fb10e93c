#include "src/repair/repair_engine.h"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <utility>

#include "src/core/chunk_reader.h"
#include "src/core/chunk_writer.h"
#include "src/crypto/naming.h"
#include "src/rs/secret_sharing.h"
#include "src/util/strings.h"

namespace cyrus {
namespace {

// Every RepairStats field once: Fold sums it into the engine's lifetime
// stats and mirrors it into the registry counter named here. A field with
// no name is summed only.
struct ScrubCounter {
  uint64_t RepairStats::*field;
  const char* name;
  const char* help;
};

constexpr ScrubCounter kScrubCounters[] = {
    {&RepairStats::scrub_passes, "cyrus_scrub_passes_total", "Completed scrub passes"},
    {&RepairStats::chunks_scanned, "cyrus_scrub_chunks_scanned_total",
     "Chunk-table entries classified by scans"},
    {&RepairStats::chunks_degraded, "cyrus_scrub_chunks_degraded_total",
     "Chunks found below their target n"},
    {&RepairStats::chunks_repaired, "cyrus_scrub_chunks_repaired_total",
     "Chunks restored to their target n"},
    {&RepairStats::chunks_unrepairable, "cyrus_scrub_chunks_unrepairable_total",
     "Chunks with fewer than t reachable shares"},
    {&RepairStats::chunks_deferred, "cyrus_scrub_chunks_deferred_total",
     "Repairs deferred by pass budgets"},
    {&RepairStats::shares_rebuilt, "cyrus_scrub_shares_rebuilt_total",
     "Fresh shares encoded and uploaded"},
    {&RepairStats::shares_pruned, "cyrus_scrub_shares_pruned_total",
     "Stale dead share locations dropped"},
    {&RepairStats::bytes_moved, "cyrus_scrub_bytes_moved_total", "Share bytes moved by repairs"},
    {&RepairStats::probe_failures, "cyrus_scrub_probe_failures_total",
     "Probe List calls failed after retry"},
    {&RepairStats::chunks_reclaimed, "cyrus_scrub_chunks_reclaimed_total",
     "Zero-ref dedup chunks garbage-collected"},
    {&RepairStats::shares_reclaimed, "cyrus_scrub_shares_reclaimed_total",
     "Share objects deleted by orphan reclaim"},
    {&RepairStats::bytes_reclaimed, "cyrus_scrub_bytes_reclaimed_total",
     "Physical share bytes freed by orphan reclaim"},
    {&RepairStats::reclaims_deferred, nullptr, nullptr},
    {&RepairStats::shares_integrity_checked, "cyrus_scrub_integrity_checked_total",
     "At-rest shares downloaded and digest-checked"},
    {&RepairStats::integrity_failures, "cyrus_scrub_integrity_failures_total",
     "At-rest shares failing their digest check (bit rot)"},
    {&RepairStats::shares_healed, "cyrus_scrub_shares_healed_total",
     "Rotted shares re-encoded and overwritten in place"},
    {&RepairStats::records_upgraded, "cyrus_scrub_records_upgraded_total",
     "Digestless chunk entries given full digest sets"},
};

}  // namespace

RepairEngine::RepairEngine(RepairContext context, RepairEngineOptions options)
    : context_(std::move(context)), options_(std::move(options)) {
  metrics_ = context_.metrics != nullptr ? context_.metrics
                                         : &obs::MetricsRegistry::Default();
  degraded_shares_gauge_ =
      metrics_->GetGauge("cyrus_degraded_shares", {},
                         "Shares owed by degraded (quorum) writes, pending repair");
  degraded_chunks_gauge_ =
      metrics_->GetGauge("cyrus_degraded_chunks", {},
                         "Chunks committed below their target n, pending repair");
  degraded_writes_ =
      metrics_->GetCounter("cyrus_degraded_writes_total", {},
                           "Chunk commits that met quorum but missed target n");
  for (const ScrubCounter& counter : kScrubCounters) {
    scrub_counters_.push_back(counter.name == nullptr
                                  ? nullptr
                                  : metrics_->GetCounter(counter.name, {}, counter.help));
  }
}

void RepairEngine::RefreshDebtGaugesLocked() {
  uint64_t shares = 0;
  for (const auto& [chunk, missing] : degraded_debt_) {
    shares += missing;
  }
  degraded_shares_gauge_->Set(static_cast<double>(shares));
  degraded_chunks_gauge_->Set(static_cast<double>(degraded_debt_.size()));
}

void RepairEngine::NoteDegradedWrite(const Sha1Digest& chunk_id, uint32_t missing) {
  std::lock_guard<std::mutex> lock(debt_mutex_);
  if (missing == 0) {
    degraded_debt_.erase(chunk_id);
  } else {
    degraded_writes_->Increment();
    degraded_debt_[chunk_id] = missing;
  }
  RefreshDebtGaugesLocked();
}

uint64_t RepairEngine::OutstandingDegradedShares() const {
  std::lock_guard<std::mutex> lock(debt_mutex_);
  uint64_t shares = 0;
  for (const auto& [chunk, missing] : degraded_debt_) {
    shares += missing;
  }
  return shares;
}

void RepairEngine::Fold(const RepairStats& delta) {
  // Each delta also goes to the registry, so dashboards and /metrics see
  // scrub health without holding a RepairEngine reference.
  for (size_t i = 0; i < std::size(kScrubCounters); ++i) {
    uint64_t RepairStats::*field = kScrubCounters[i].field;
    stats_.*field += delta.*field;
    if (scrub_counters_[i] != nullptr) {
      scrub_counters_[i]->Increment(delta.*field);
    }
  }
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

RepairEngine::ProbeSnapshot RepairEngine::ProbeInternal(RepairStats& delta) {
  ProbeSnapshot snapshot;
  if (context_.registry == nullptr) {
    return snapshot;
  }
  const std::vector<int> active = context_.registry->ActiveIndices();
  std::vector<Result<std::vector<ObjectInfo>>> listings(
      active.size(), Result<std::vector<ObjectInfo>>(InternalError("not probed")));
  ParallelFor(context_.pool, active.size(),
              [&](size_t i) { listings[i] = context_.calls->List(active[i], ""); });
  // Bookkeeping is sequential: registry/ring/monitor mutation is not
  // thread-safe and probe results must land before classification.
  for (size_t i = 0; i < active.size(); ++i) {
    const int csp = active[i];
    if (!listings[i].ok()) {
      ++delta.probe_failures;
      snapshot.unreachable.push_back(csp);
      if (context_.mark_csp_failed) {
        (void)context_.mark_csp_failed(csp);
      }
      continue;
    }
    if (context_.monitor != nullptr && context_.now) {
      context_.monitor->RecordProbe(csp, context_.now(), true);
    }
    auto& names = snapshot.objects_by_csp[csp];
    for (const ObjectInfo& object : *listings[i]) {
      names.insert(object.name);
    }
  }
  return snapshot;
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

uint32_t RepairEngine::TargetN(const ChunkEntry& entry) const {
  const size_t feasible = context_.cluster_aware
                              ? context_.registry->NumActiveClusters()
                              : context_.registry->ActiveIndices().size();
  uint32_t target = 0;
  if (context_.current_n) {
    if (auto n = context_.current_n(); n.ok()) {
      target = *n;
    }
  }
  if (target == 0) {
    target = static_cast<uint32_t>(feasible);  // Eq. (1) infeasible: degrade
  }
  target = std::max(target, entry.t);
  target = std::min<uint32_t>(target, static_cast<uint32_t>(feasible));
  return std::min(target, kMaxShares);
}

ChunkHealth RepairEngine::Classify(const Sha1Digest& chunk_id, const ChunkEntry& entry,
                                   const ProbeSnapshot& snapshot,
                                   std::vector<ChunkShare>& dead) const {
  ChunkHealth health;
  health.chunk_id = chunk_id;
  health.size = entry.size;
  health.t = entry.t;
  health.n_target = TargetN(entry);
  for (const ChunkShare& share : entry.shares) {
    const bool active = context_.registry->IsActive(share.csp);
    bool live = active;
    if (active) {
      // Trust the location only when the probe saw the object; a listed
      // CSP missing the object is silent loss, and an active CSP absent
      // from the snapshot was unreachable when probed.
      auto listed = snapshot.objects_by_csp.find(share.csp);
      live = listed != snapshot.objects_by_csp.end() &&
             listed->second.count(ShareName(chunk_id, share.share_index, entry.t)) > 0;
    }
    if (live) {
      ++health.live_shares;
    } else {
      ++health.dead_locations;
      dead.push_back(share);
    }
  }
  return health;
}

std::vector<ChunkHealth> RepairEngine::ScanInternal(
    const ProbeSnapshot& snapshot, RepairStats& delta,
    std::map<Sha1Digest, std::vector<ChunkShare>>* dead_by_chunk) {
  std::vector<ChunkHealth> health;
  if (context_.chunk_table == nullptr) {
    return health;
  }
  for (const Sha1Digest& chunk_id : context_.chunk_table->AllChunkIds()) {
    const ChunkEntry* entry = context_.chunk_table->Find(chunk_id);
    if (entry == nullptr) {
      continue;
    }
    if (entry->dedup && entry->refcount == 0) {
      // Condemned: no version of this client references the chunk. It is
      // either awaiting this pass's orphan reclaim or was already reclaimed
      // by another shard's scrub (its objects are gone, which would read as
      // "degraded" here and waste repair bandwidth resurrecting garbage).
      // Clients that still reference it scan it through their own tables.
      continue;
    }
    std::vector<ChunkShare> dead;
    health.push_back(Classify(chunk_id, *entry, snapshot, dead));
    ++delta.chunks_scanned;
    if (health.back().degraded()) {
      ++delta.chunks_degraded;
      if (dead_by_chunk != nullptr) {
        (*dead_by_chunk)[chunk_id] = std::move(dead);
      }
    }
  }
  // Worst first: smallest margin above t (data-loss proximity), then most
  // missing redundancy, then largest chunk (more bytes at risk).
  std::stable_sort(health.begin(), health.end(),
                   [](const ChunkHealth& a, const ChunkHealth& b) {
                     if (a.degraded() != b.degraded()) {
                       return a.degraded();
                     }
                     if (a.margin() != b.margin()) {
                       return a.margin() < b.margin();
                     }
                     if (a.missing() != b.missing()) {
                       return a.missing() > b.missing();
                     }
                     return a.size > b.size;
                   });
  return health;
}

std::vector<ChunkHealth> RepairEngine::Scan() {
  RepairStats delta;
  ProbeSnapshot snapshot = ProbeInternal(delta);
  std::vector<ChunkHealth> health = ScanInternal(snapshot, delta, nullptr);
  Fold(delta);
  return health;
}

// ---------------------------------------------------------------------------
// Repair
// ---------------------------------------------------------------------------

Status RepairEngine::RepairChunk(const ChunkHealth& health,
                                 const std::vector<ChunkShare>& dead,
                                 uint64_t* budget_left, ScrubReport& report,
                                 RepairStats& delta) {
  const Sha1Digest& chunk_id = health.chunk_id;
  const ChunkEntry* entry = context_.chunk_table->Find(chunk_id);
  if (entry == nullptr) {
    return NotFoundError(StrCat("chunk ", chunk_id.ToHex(), " vanished mid-scrub"));
  }
  const uint32_t t = entry->t;
  const uint64_t share_bytes = ShareSize(entry->size, t);

  // The live entry = the table entry minus the scan's dead list.
  auto is_dead = [&](const ChunkShare& share) {
    for (const ChunkShare& d : dead) {
      if (d.csp == share.csp && d.share_index == share.share_index) {
        return true;
      }
    }
    return false;
  };
  ChunkEntry live = *entry;
  live.shares.clear();
  std::vector<int> holders;  // CSPs of live shares: the rebuild avoids them
  uint32_t max_index = 0;
  for (const ChunkShare& share : entry->shares) {
    max_index = std::max(max_index, share.share_index);
    if (!is_dead(share)) {
      live.shares.push_back(share);
      holders.push_back(share.csp);
    }
  }
  if (live.shares.size() < t) {
    return DataLossError(StrCat("chunk ", chunk_id.ToHex(), ": only ", live.shares.size(),
                                " of t=", t, " shares live"));
  }
  const uint32_t missing = health.missing();

  // Pre-flight the budget on the expected traffic (t downloads + the new
  // uploads); deduct actuals as transfers land.
  if (budget_left != nullptr &&
      *budget_left < share_bytes * (t + uint64_t{missing})) {
    return ResourceExhaustedError(
        StrCat("chunk ", chunk_id.ToHex(), " deferred: bandwidth budget spent"));
  }
  auto spend = [&](uint64_t bytes) {
    delta.bytes_moved += bytes;
    if (budget_left != nullptr) {
      *budget_left -= std::min(*budget_left, bytes);
    }
  };

  // Read the chunk through the client's read path: the first t live
  // shares download concurrently, the rest are fallbacks, and corrupt
  // shares are rejected (or corrected) and healed in place. Bit rot at a
  // surviving share is at-rest damage, so it lands in the integrity ledger
  // without quarantining the provider.
  ChunkReadOptions read_options;
  for (size_t i = 0; i < live.shares.size() && i < t; ++i) {
    read_options.preferred.push_back(live.shares[i].csp);
  }
  read_options.quarantine = false;
  read_options.verify_plaintext = true;  // the rebuilt shares derive from it
  Bytes data(entry->size);
  ChunkReadResult read;
  const Status read_status =
      context_.reader->Read(chunk_id, live, read_options, MutableByteSpan(data), read);
  report.transfer.Append(read.report);
  spend(read.bytes_moved);
  CYRUS_RETURN_IF_ERROR(read_status);
  CYRUS_ASSIGN_OR_RETURN(SecretSharingCodec codec, context_.reader->CodecFor(chunk_id, live));

  // Re-encode the missing redundancy at fresh indices through the client's
  // write path, never on a CSP already holding a live share.
  LayoutChange change{dead, {}, {}};
  CYRUS_ASSIGN_OR_RETURN(change.fresh,
                         context_.writer->Extend(codec, chunk_id, data, max_index + 1,
                                                 missing, std::move(holders),
                                                 report.transfer));
  spend(share_bytes * change.fresh.size());
  delta.shares_rebuilt += change.fresh.size();

  // Once the chunk is back at target, the dead locations no rebuilt share
  // replaced are stale bookkeeping (their CSPs are gone or their objects
  // vanished); they are pruned so the next scan sees a clean entry. Short
  // of target, whatever landed is still recorded.
  const uint32_t live_now = static_cast<uint32_t>(live.shares.size() + change.fresh.size());
  const bool at_target = live_now >= health.n_target;
  const std::vector<ChunkShare> left = RecordLayout(chunk_id, change, at_target);
  if (!change.fresh.empty() || (at_target && !left.empty())) {
    report.changed_chunks.push_back(chunk_id);
  }
  if (at_target) {
    delta.shares_pruned += left.size();
    return OkStatus();
  }
  return FailedPreconditionError(
      StrCat("chunk ", chunk_id.ToHex(), ": restored ", live_now, " of target ",
             health.n_target, " shares; active CSP set too small"));
}

std::vector<ChunkShare> RepairEngine::RecordLayout(const Sha1Digest& chunk_id,
                                                   const LayoutChange& change,
                                                   bool prune) {
  // The table is driver-only and every caller took the dead locations from
  // it on this thread, so these edits find their targets.
  ChunkTable& table = *context_.chunk_table;
  for (size_t i = 0; i < change.fresh.size(); ++i) {
    const ChunkShare& fresh = change.fresh[i];
    if (i < change.dead.size()) {
      const ChunkShare& old = change.dead[i];
      (void)table.MoveShare(chunk_id, old.csp, old.share_index, fresh.csp,
                            fresh.share_index, fresh.digest);
    } else {
      (void)table.AddShare(chunk_id, fresh);
    }
  }
  for (const ShareDigest& d : change.derived) {
    (void)table.SetShareDigest(chunk_id, d.share_index, d.digest);
  }
  std::vector<ChunkShare> left(
      change.dead.begin() + std::min(change.dead.size(), change.fresh.size()),
      change.dead.end());
  if (prune) {
    for (const ChunkShare& old : left) {
      (void)table.RemoveShare(chunk_id, old.csp, old.share_index);
    }
  }
  const ChunkEntry* entry = table.Find(chunk_id);
  if (context_.share_index != nullptr && entry != nullptr && entry->dedup) {
    (void)context_.share_index->ReplaceShares(chunk_id, entry->shares);
  }
  return left;
}

void RepairEngine::ReclaimOrphans(uint64_t* budget_left, RepairStats& delta) {
  if (context_.share_index == nullptr) {
    return;
  }
  // Refcounted GC (the Delete half of CDStore-style dedup). The entry is
  // erased from the index *before* its objects are deleted: once gone, a
  // concurrent writer misses and re-publishes from scratch rather than
  // taking a reference to shares mid-deletion. The residual window - a
  // writer re-uploading the same convergent names while this pass deletes
  // them - is excluded by the deployment model: reclaim runs in the same
  // process that owns metadata writes (the gateway), in scrub windows, not
  // concurrently with Puts against the same index.
  for (const Sha1Digest& chunk_id : context_.share_index->ZeroRefChunks()) {
    std::optional<ShareIndexEntry> entry = context_.share_index->Lookup(chunk_id);
    if (!entry.has_value()) {
      continue;  // re-adopted or reclaimed since the snapshot
    }
    const ChunkEntry* local = context_.chunk_table->Find(chunk_id);
    if (local != nullptr && local->refcount > 0) {
      // A local version still uses it (e.g. references synced outside the
      // index's accounting). Never delete what this table can still reach.
      continue;
    }
    const uint64_t share_bytes = ShareSize(entry->logical_size, entry->t);
    const uint64_t total_bytes = share_bytes * entry->shares.size();
    // Deletes move no share payload, but each one costs a provider round
    // trip; charging their object bytes against the pass budget keeps
    // scrub's total CSP pressure bounded by one knob.
    if (budget_left != nullptr && *budget_left < total_bytes) {
      ++delta.reclaims_deferred;
      continue;
    }
    if (!context_.share_index->Erase(chunk_id).ok()) {
      continue;  // a writer re-referenced it between snapshot and now
    }
    uint64_t freed = 0;
    uint64_t freed_shares = 0;
    std::vector<ChunkShare> undeleted;
    for (const ChunkShare& share : entry->shares) {
      const Status deleted =
          context_.calls->Delete(share.csp, ShareName(chunk_id, share.share_index, entry->t));
      if (deleted.ok()) {
        freed += share_bytes;
        ++freed_shares;
        if (budget_left != nullptr) {
          *budget_left -= std::min(*budget_left, share_bytes);
        }
      } else if (deleted.code() == StatusCode::kNotFound) {
        ++freed_shares;  // already gone (e.g. a crashed Put's rollback)
      } else {
        // Provider unreachable after retries, or no account at it this
        // session: the tombstone keeps the location, so a later pass (or a
        // client that does hold an account) still has a record to retry
        // from.
        undeleted.push_back(share);
      }
    }
    if (!undeleted.empty()) {
      // Erasing now would permanently orphan the surviving objects - no
      // index record would be left to drive a retry, and the paid storage
      // leaks forever. Re-publish a zero-ref tombstone holding exactly the
      // undeleted locations: pending_delete keeps it invisible to
      // LookupAndRef/AddRef (no writer may adopt a partially deleted
      // layout) while ZeroRefChunks re-surfaces it to the next pass.
      ShareIndexEntry tombstone;
      tombstone.logical_size = entry->logical_size;
      tombstone.t = entry->t;
      tombstone.n = entry->n;
      tombstone.refcount = 0;
      tombstone.pending_delete = true;
      tombstone.shares = std::move(undeleted);
      (void)context_.share_index->Publish(chunk_id, std::move(tombstone));
      ++delta.reclaims_deferred;
    } else {
      if (local != nullptr) {
        (void)context_.chunk_table->Evict(chunk_id);
      }
      ++delta.chunks_reclaimed;
    }
    delta.shares_reclaimed += freed_shares;
    delta.bytes_reclaimed += freed;
    context_.share_index->NoteReclaimed(freed_shares, freed);
  }
  // Cross-shard sweep: evict local zero-ref dedup entries whose global
  // entry is already gone (another shard's scrub deleted the objects), so
  // the table stops carrying tombstones for data that no longer exists.
  for (const Sha1Digest& chunk_id : context_.chunk_table->AllChunkIds()) {
    const ChunkEntry* entry = context_.chunk_table->Find(chunk_id);
    if (entry == nullptr || !entry->dedup || entry->refcount > 0) {
      continue;
    }
    if (!context_.share_index->Lookup(chunk_id).has_value()) {
      (void)context_.chunk_table->Evict(chunk_id);
    }
  }
}

void RepairEngine::IntegrityPass(uint64_t* budget_left, ScrubReport& report,
                                 RepairStats& delta) {
  if (options_.integrity_samples_per_pass == 0 ||
      context_.chunk_table == nullptr || context_.registry == nullptr) {
    return;
  }
  std::vector<Sha1Digest> ids = context_.chunk_table->AllChunkIds();
  if (ids.empty()) {
    return;
  }
  // AllChunkIds is sorted (map order), so a persistent cursor turns the
  // budgeted sample into a rotating full sweep across passes.
  const size_t start = integrity_cursor_ % ids.size();
  uint32_t sampled = 0;
  size_t scanned = 0;
  for (; scanned < ids.size() && sampled < options_.integrity_samples_per_pass;
       ++scanned) {
    const Sha1Digest& chunk_id = ids[(start + scanned) % ids.size()];
    const ChunkEntry* entry = context_.chunk_table->Find(chunk_id);
    if (entry == nullptr || entry->shares.empty() ||
        (entry->dedup && entry->refcount == 0)) {
      continue;  // vanished or condemned; nothing at rest worth checking
    }
    const uint64_t share_bytes = ShareSize(entry->size, entry->t);
    if (budget_left != nullptr &&
        *budget_left < share_bytes * entry->shares.size()) {
      break;  // cursor stays on this chunk; the next pass resumes here
    }
    ++sampled;

    // Audit read: every reachable share is downloaded once and verified -
    // against its digest, or (legacy entries) by the error-correcting decode
    // over all of them - and rotted shares are healed in place. A clean,
    // fully digested chunk is never decoded.
    const bool legacy =
        std::any_of(entry->shares.begin(), entry->shares.end(),
                    [](const ChunkShare& share) { return !share.has_digest(); });
    std::vector<uint32_t> indices;
    for (const ChunkShare& share : entry->shares) {
      indices.push_back(share.share_index);
    }
    ChunkReadOptions read_options;
    read_options.all_shares = true;
    read_options.quarantine = false;
    read_options.verify_plaintext = legacy;  // upgraded digests derive from it
    Bytes data(entry->size);
    ChunkReadResult read;
    const Status read_status =
        context_.reader->Read(chunk_id, *entry, read_options, MutableByteSpan(data), read);
    report.transfer.Append(read.report);
    delta.bytes_moved += read.bytes_moved;
    if (budget_left != nullptr) {
      *budget_left -= std::min(*budget_left, read.bytes_moved);
    }
    delta.shares_integrity_checked += read.shares_downloaded;
    delta.integrity_failures += read.corrupt.size();
    delta.shares_healed += read.healed;
    // The reader ledgered the digest mismatches; shares the error-correcting
    // decode named are rot found at rest too.
    for (size_t i = read.integrity_rejected; i < read.corrupt.size(); ++i) {
      context_.monitor->RecordIntegrityFailure(read.corrupt[i].csp);
    }
    if (!read_status.ok() || !read.decoded) {
      continue;  // clean, or fewer than t clean shares (the repair pass owns it)
    }
    if (!read.corrupt.empty() && read.healed == read.corrupt.size()) {
      report.repaired_chunks.push_back(chunk_id);
      report.changed_chunks.push_back(chunk_id);
    }

    // Legacy entries earned a full digest set from the verified plaintext;
    // record it so every future read authenticates before decoding.
    if (legacy) {
      auto digests = context_.reader->DeriveDigests(chunk_id, *entry, data, indices);
      if (!digests.ok()) {
        continue;
      }
      RecordLayout(chunk_id, LayoutChange{{}, {}, *std::move(digests)});
      ++delta.records_upgraded;
      report.changed_chunks.push_back(chunk_id);
    }
  }
  integrity_cursor_ = (start + scanned) % ids.size();
}

Result<ScrubReport> RepairEngine::ScrubOnce(obs::TraceBuilder* trace) {
  if (context_.chunk_table == nullptr || context_.registry == nullptr ||
      context_.reader == nullptr || context_.writer == nullptr) {
    return FailedPreconditionError("repair engine context is incomplete");
  }
  ScrubReport report;
  RepairStats& delta = report.stats;
  delta.scrub_passes = 1;

  obs::ScopedSpan probe_span;
  if (trace != nullptr) {
    probe_span = trace->Span("probe");
  }
  ProbeSnapshot snapshot = ProbeInternal(delta);
  probe_span.End();

  obs::ScopedSpan scan_span;
  if (trace != nullptr) {
    scan_span = trace->Span("scan");
  }
  std::map<Sha1Digest, std::vector<ChunkShare>> dead_by_chunk;
  std::vector<ChunkHealth> health = ScanInternal(snapshot, delta, &dead_by_chunk);
  scan_span.End();

  obs::ScopedSpan repair_span;
  if (trace != nullptr) {
    repair_span = trace->Span("repair");
  }
  uint64_t budget = options_.bandwidth_budget_bytes;
  uint64_t* budget_left = options_.bandwidth_budget_bytes > 0 ? &budget : nullptr;
  uint32_t repairs = 0;
  for (const ChunkHealth& chunk : health) {
    if (!chunk.degraded()) {
      break;  // sorted: every degraded chunk precedes the healthy ones
    }
    if (options_.max_repairs_per_pass > 0 && repairs >= options_.max_repairs_per_pass) {
      ++delta.chunks_deferred;
      report.unrepaired.push_back(chunk);
      continue;
    }
    Status repaired =
        RepairChunk(chunk, dead_by_chunk[chunk.chunk_id], budget_left, report, delta);
    if (repaired.ok()) {
      ++delta.chunks_repaired;
      ++repairs;
      report.repaired_chunks.push_back(chunk.chunk_id);
      continue;
    }
    report.unrepaired.push_back(chunk);
    switch (repaired.code()) {
      case StatusCode::kResourceExhausted:
        ++delta.chunks_deferred;
        break;
      case StatusCode::kDataLoss:
      case StatusCode::kIntegrity:  // fewer than t shares authenticated
        ++delta.chunks_unrepairable;
        break;
      default:
        ++delta.chunks_deferred;  // capacity shortfall: retry when CSPs return
        break;
    }
  }
  repair_span.End();

  obs::ScopedSpan integrity_span;
  if (trace != nullptr) {
    integrity_span = trace->Span("integrity");
  }
  IntegrityPass(budget_left, report, delta);
  integrity_span.End();

  obs::ScopedSpan reclaim_span;
  if (trace != nullptr) {
    reclaim_span = trace->Span("reclaim");
  }
  ReclaimOrphans(budget_left, delta);
  reclaim_span.End();

  pending_reprobe_.clear();
  Fold(delta);

  // Recompute the degraded-write ledger from this pass's ground truth:
  // everything repaired (or found healthy) leaves it, everything still
  // short of target n stays with its current shortfall.
  {
    std::lock_guard<std::mutex> lock(debt_mutex_);
    degraded_debt_.clear();
    for (const ChunkHealth& chunk : report.unrepaired) {
      if (chunk.missing() > 0) {
        degraded_debt_[chunk.chunk_id] = chunk.missing();
      }
    }
    RefreshDebtGaugesLocked();
  }
  return report;
}

void RepairEngine::FlagCspForReprobe(int csp) { pending_reprobe_.insert(csp); }

std::vector<int> RepairEngine::pending_reprobe() const {
  return std::vector<int>(pending_reprobe_.begin(), pending_reprobe_.end());
}

}  // namespace cyrus
