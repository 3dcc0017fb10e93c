// Proactive scrub & repair (the background complement to paper §5.5).
//
// CYRUS as published repairs shares only *lazily*: a chunk whose share sits
// on a failed or removed CSP is re-scattered the next time someone happens
// to Get it, so cold data silently decays below the reliability target n
// chosen by Eq. (1). The RepairEngine closes that gap with a scrub pass a
// client (or a background service) runs periodically:
//
//   1. Probe   - one List per active CSP builds a snapshot of which share
//                objects actually exist where; unreachable CSPs are marked
//                failed through the owning client.
//   2. Scan    - every ChunkTable entry is classified against the snapshot.
//                A share location is *dead* when its CSP is failed/removed
//                or the object has silently vanished; a chunk is *degraded*
//                when it has dead locations or fewer live shares than the
//                current Eq.-1 target n.
//   3. Repair  - degraded chunks are repaired worst-first (smallest margin
//                above t, then most missing redundancy, then largest): the
//                chunk is read from t surviving shares through the client's
//                ChunkReader (digest-checked, healed), fresh shares at new
//                indices are written through the client's ChunkWriter onto
//                CSPs not yet holding one, and RecordLayout (which also
//                records Get's migrations) stores them with their digests.
//                Reads run on the shared ThreadPool; a per-pass bandwidth
//                budget and repair cap bound the traffic a scrub may add.
//
// The engine mutates the chunk table but never file metadata; the owning
// CyrusClient republishes metadata for versions whose chunks moved (see
// CyrusClient::ScrubOnce).
#ifndef SRC_REPAIR_REPAIR_ENGINE_H_
#define SRC_REPAIR_REPAIR_ENGINE_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cloud/availability.h"
#include "src/cloud/registry.h"
#include "src/core/transfer.h"
#include "src/dedup/share_index.h"
#include "src/meta/chunk_table.h"
#include "src/meta/metadata.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/result.h"
#include "src/util/thread_pool.h"

namespace cyrus {

class ChunkReader;
class ChunkWriter;

struct RepairEngineOptions {
  // Most chunks repaired per ScrubOnce pass; 0 = unlimited. The rest stay
  // degraded and are picked up by the next pass (they remain sorted, so the
  // worst chunks always go first).
  uint32_t max_repairs_per_pass = 0;
  // Share bytes (downloaded + uploaded) one pass may move; 0 = unlimited.
  // Repair competes with foreground traffic for the same links, so
  // production deployments cap it.
  uint64_t bandwidth_budget_bytes = 0;
  // Chunks whose at-rest share bytes one pass samples for bit rot (digest
  // check without decode); 0 disables the integrity pass. A persistent
  // cursor rotates the sample window so successive passes cover the whole
  // table. Downloads are charged against the same bandwidth budget.
  uint32_t integrity_samples_per_pass = 0;
};

// Monotonic counters over the engine's lifetime. Every field has one row in
// repair_engine.cc's field table, which names its cyrus_scrub_* counter.
struct RepairStats {
  uint64_t scrub_passes = 0;
  uint64_t chunks_scanned = 0;
  uint64_t chunks_degraded = 0;
  uint64_t chunks_repaired = 0;     // back to the pass's target n
  uint64_t chunks_unrepairable = 0; // fewer than t live shares reachable
  uint64_t chunks_deferred = 0;     // budget or repair cap hit
  uint64_t shares_rebuilt = 0;      // fresh shares encoded and uploaded
  uint64_t shares_pruned = 0;       // stale dead locations dropped
  uint64_t bytes_moved = 0;         // share bytes downloaded + uploaded
  uint64_t probe_failures = 0;      // List calls that failed (after retry)
  // Orphan-reclaim pass (zero-ref dedup chunks GC'd off the CSPs).
  uint64_t chunks_reclaimed = 0;
  uint64_t shares_reclaimed = 0;    // share objects deleted
  uint64_t bytes_reclaimed = 0;     // physical share bytes freed
  // The budget blocked the deletes, or some failed and the entry was kept
  // as a pending-delete tombstone; either way the next pass retries.
  uint64_t reclaims_deferred = 0;
  // Bit-rot integrity pass (sampled digest checks of at-rest shares).
  uint64_t shares_integrity_checked = 0;  // shares downloaded and hashed
  uint64_t integrity_failures = 0;        // digest mismatches found at rest
  uint64_t shares_healed = 0;             // rotted shares re-encoded in place
  uint64_t records_upgraded = 0;          // digestless entries given digests
};

// One chunk's health as seen by a scan.
struct ChunkHealth {
  Sha1Digest chunk_id;
  uint64_t size = 0;
  uint32_t t = 0;
  uint32_t n_target = 0;     // what this pass would restore the chunk to
  uint32_t live_shares = 0;
  uint32_t dead_locations = 0;

  // Shares above the reconstruction threshold; <= 0 means one more loss
  // destroys data.
  int margin() const { return static_cast<int>(live_shares) - static_cast<int>(t); }
  uint32_t missing() const {
    return n_target > live_shares ? n_target - live_shares : 0;
  }
  bool degraded() const { return dead_locations > 0 || live_shares < n_target; }
};

struct ScrubReport {
  RepairStats stats;         // this pass's deltas (not lifetime totals)
  TransferReport transfer;   // every repair transfer, for the flow simulator
  std::vector<Sha1Digest> repaired_chunks;
  std::vector<ChunkHealth> unrepaired;  // still degraded after the pass
  // Every chunk whose recorded layout this pass changed (rebuilt in full
  // or in part, pruned, healed in place, or a legacy entry upgraded with
  // share digests), once per change; the owning client republishes
  // metadata for the versions referencing them.
  std::vector<Sha1Digest> changed_chunks;
};

// One rebuilt chunk layout, for RepairEngine::RecordLayout: the i-th
// `fresh` share (from ChunkWriter::Extend) replaces the i-th `dead`
// location, and `derived` digests come from verified plaintext.
struct LayoutChange {
  std::vector<ChunkShare> dead;
  std::vector<ChunkShare> fresh;
  std::vector<ShareDigest> derived;
};

// Everything the engine borrows from the owning client. Raw pointers: the
// client owns both the engine and the pointees, and the engine never
// outlives it. `pool` may be null (transfers run synchronously). The
// callbacks route state changes through the client so registry, ring, and
// monitor stay consistent.
struct RepairContext {
  // The client's CSP call layer: probe Lists and reclaim Deletes go through
  // it, retried under the client's transfer_retry policy, and a provider
  // failure reaches the client's health path.
  CspCalls* calls = nullptr;
  // The client's chunk read path: repair and the integrity sweep read
  // surviving shares through it (per-chunk keys, digest checks, error
  // correction, in-place heals, pooled buffers), each passing the chunk's
  // table entry as the layout to read.
  ChunkReader* reader = nullptr;
  // The client's chunk write path: repair rebuilds place and upload fresh
  // shares through it (ring placement, failover, failures routed to the
  // client's health path, share digests).
  ChunkWriter* writer = nullptr;
  CspRegistry* registry = nullptr;
  ChunkTable* chunk_table = nullptr;
  AvailabilityMonitor* monitor = nullptr;
  ThreadPool* pool = nullptr;
  bool cluster_aware = false;
  std::function<double()> now;
  std::function<Status(int)> mark_csp_failed;
  std::function<Result<uint32_t>()> current_n;  // Eq. (1) for the active set
  // Cross-user dedup hook (optional; null = pre-dedup behaviour). With
  // `share_index` set, ScrubOnce appends an orphan-reclaim pass that
  // deletes the share objects of zero-ref entries under the same bandwidth
  // budget, and Scan skips condemned chunks instead of "repairing" garbage.
  ShareIndex* share_index = nullptr;
  // Sink for cyrus_scrub_* counters; nullptr = process-wide default.
  obs::MetricsRegistry* metrics = nullptr;
};

class RepairEngine {
 public:
  RepairEngine(RepairContext context, RepairEngineOptions options);

  // Probe + classify without repairing; degraded chunks first, worst
  // first. Cheap enough to drive dashboards ("how far below n is my cold
  // data?").
  std::vector<ChunkHealth> Scan();

  // One full scrub pass: probe, scan, repair in priority order until done
  // or the pass budget is exhausted. `trace` (nullable) receives
  // probe/scan/repair stage spans.
  Result<ScrubReport> ScrubOnce(obs::TraceBuilder* trace = nullptr);

  // Flags a CSP whose shares must be re-verified before being trusted -
  // the client calls this when a CSP returns from an outage, since objects
  // may have been lost while it was down. Cleared by the next ScrubOnce.
  void FlagCspForReprobe(int csp);
  std::vector<int> pending_reprobe() const;

  // Records that a quorum Put committed `chunk_id` with `missing` shares
  // short of its target n. The debt sits in a ledger exported as the
  // cyrus_degraded_shares / cyrus_degraded_chunks gauges and is recomputed
  // from ground truth after every ScrubOnce pass (repaired chunks leave the
  // ledger; still-degraded ones stay). `missing` == 0 settles the entry.
  void NoteDegradedWrite(const Sha1Digest& chunk_id, uint32_t missing);

  // Sum of missing shares across the degraded-write ledger.
  uint64_t OutstandingDegradedShares() const;

  // The one step that records a rebuilt layout (Get's lazy migration,
  // scrub repair, digest upgrades); driver thread only. Surplus fresh
  // shares are added; with `prune`, dead locations no fresh share replaced
  // are dropped. A convergent chunk's new layout is copied into the
  // ShareIndex, so the next dedup hit references shares that exist.
  // Returns the dead locations no fresh share replaced.
  std::vector<ChunkShare> RecordLayout(const Sha1Digest& chunk_id,
                                       const LayoutChange& change, bool prune = false);

  const RepairStats& stats() const { return stats_; }
  const RepairEngineOptions& options() const { return options_; }
  void set_options(RepairEngineOptions options) { options_ = options; }

 private:
  // Which share objects exist on which active CSP (one List per CSP).
  struct ProbeSnapshot {
    // Active CSP index -> names of every object it holds.
    std::map<int, std::set<std::string, std::less<>>> objects_by_csp;
    // Active CSPs whose List failed even after retries; they are marked
    // failed before the scan classifies shares.
    std::vector<int> unreachable;
  };

  // The pass's restoration target for a chunk: Eq. (1)'s n clamped to what
  // the active CSP set can actually hold (one share per CSP / cluster),
  // never below the chunk's t when that many CSPs exist.
  uint32_t TargetN(const ChunkEntry& entry) const;

  // Probe/scan with stats accumulated into `delta` (Scan and ScrubOnce
  // wrap these and fold into the lifetime counters).
  ProbeSnapshot ProbeInternal(RepairStats& delta);
  std::vector<ChunkHealth> ScanInternal(
      const ProbeSnapshot& snapshot, RepairStats& delta,
      std::map<Sha1Digest, std::vector<ChunkShare>>* dead_by_chunk);

  // Classifies one chunk against the snapshot; fills `dead` with the
  // locations found dead.
  ChunkHealth Classify(const Sha1Digest& chunk_id, const ChunkEntry& entry,
                       const ProbeSnapshot& snapshot,
                       std::vector<ChunkShare>& dead) const;

  // Repairs one degraded chunk: reads it as its table entry minus `dead`
  // stores it, then rebuilds the missing shares. Journals transfers into
  // `report` and counters into `delta`; decrements `*budget_left` by the
  // bytes moved (budget_left == nullptr means unlimited). Returns OK when the chunk is
  // back at its target n, kResourceExhausted when the pass budget blocked
  // it, kDataLoss when fewer than t live shares were reachable, and
  // kFailedPrecondition when the active CSP set cannot hold the target.
  Status RepairChunk(const ChunkHealth& health, const std::vector<ChunkShare>& dead,
                     uint64_t* budget_left, ScrubReport& report, RepairStats& delta);

  // Orphan-reclaim pass: deletes the share objects of zero-ref ShareIndex
  // entries (skipping any this client's table still references), erases the
  // entries, and evicts matching zero-ref local entries. Budgeted like
  // repair; deferred entries wait for the next pass. A delete that still
  // fails after retries leaves a pending-delete tombstone in the index
  // holding the surviving locations, so the objects are never silently
  // orphaned. No-op without a share_index.
  void ReclaimOrphans(uint64_t* budget_left, RepairStats& delta);

  // Sampled bit-rot pass: downloads the shares of up to
  // options_.integrity_samples_per_pass chunks (round-robin from a
  // persistent cursor), hashes each against the table's stored digest, and
  // heals mismatches in place (decode from clean shares, re-encode the
  // rotted index, overwrite the object); each chunk is read as its whole
  // table entry stores it. Entries with a digestless share take the
  // error-correcting decode once and are upgraded with a full digest set.
  // Healed chunks land in report.repaired_chunks, and healed and upgraded
  // ones in report.changed_chunks. No-op when the knob is 0.
  void IntegrityPass(uint64_t* budget_left, ScrubReport& report,
                     RepairStats& delta);

  // Adds `delta` to the lifetime totals and mirrors it into the registry's
  // cyrus_scrub_* counters.
  void Fold(const RepairStats& delta);

  // Requires debt_mutex_ held.
  void RefreshDebtGaugesLocked();

  RepairContext context_;
  RepairEngineOptions options_;
  RepairStats stats_;
  std::set<int> pending_reprobe_;
  obs::MetricsRegistry* metrics_ = nullptr;

  // Registry mirrors of the lifetime scrub stats, one per row of the
  // field table in repair_engine.cc (null for a row it leaves unmirrored),
  // resolved once at construction. Per-engine members, not a
  // process-global cache keyed by registry pointer: a destroyed registry's
  // address can be reused by a new one, which would make such a cache hand
  // back dangling counters.
  std::vector<obs::Counter*> scrub_counters_;

  // Round-robin position of the sampled integrity pass over the chunk-id
  // space, so successive budgeted passes sweep the whole table instead of
  // re-checking the same prefix.
  size_t integrity_cursor_ = 0;

  // Degraded-write ledger: chunk -> shares still owed to reach target n.
  // Own mutex (not the scrub path's implicit driver-thread serialization)
  // because Put completions note debt while a scrub may be recomputing it.
  mutable std::mutex debt_mutex_;
  std::map<Sha1Digest, uint32_t> degraded_debt_;
  obs::Gauge* degraded_shares_gauge_ = nullptr;
  obs::Gauge* degraded_chunks_gauge_ = nullptr;
  obs::Counter* degraded_writes_ = nullptr;
};

}  // namespace cyrus

#endif  // SRC_REPAIR_REPAIR_ENGINE_H_
