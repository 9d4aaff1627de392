// LinkageService — the long-lived, concurrent serving layer over cBV-HB.
//
// The introduction motivates 120-bit embeddings with "nearly real-time
// analysis ... involving streaming data"; this facade turns the one-shot
// pipeline into that service: the batch engine's encoder, HbIndex and
// classifier (MakeCbvHbParts) behind thread-safe Match / MatchAndInsert
// calls, batch APIs driven by a thread pool, per-call latency and volume
// counters, and snapshot/restore so a restarted process resumes warm
// from disk (src/io/serialization.h).
//
// Concurrency model (DESIGN.md §15): the index is one *core* — an
// HbIndex plus the tombstone set — behind one reader/writer lock.  A
// Match pins the current core and takes its lock shared once for the
// whole probe and compare, so Matches never block each other.  Each
// mutation takes the lock exclusive for its few table and arena writes
// (about a microsecond; encoding and journaling happen outside it).  The
// lock prefers writers, so a Match can wait for one in-flight or queued
// write, never for a stream of them, and a write is never starved by
// back-to-back Matches.
// A MatchAndInsert is not atomic as a whole: two concurrent arrivals of
// the same entity may each miss the other (both match before either
// inserts) — the same anomaly any eventually-consistent ingest path has,
// and why batch deduplication remains available offline.
//
// Mutation lifecycle: Delete sets the record's dead-slot bit in the
// arena (O(1); the blocking tables keep their now stale entries, which
// the matcher stamps and skips).  Update, and an Insert of a live id,
// bring the same arena slot back with the new bits and index the new
// blocking keys; stale keys only produce candidates that classify on the
// *current* bits, so results match a fresh build.  A background
// compactor rebuilds the arena and the tables from the live survivors
// (sorted by id), the same build a snapshot restore runs, and publishes
// the new core with an atomic shared_ptr swap — readers pin the core by
// holding the shared_ptr, so an in-flight Match finishes on its epoch;
// match output is the same before and after compaction at any thread
// count, but for the two cases Compact() names.  Mutators hold a shared
// compaction lock; only the compactor's rebuild+swap takes it exclusive,
// so compaction stalls writes (briefly) but never reads.

#ifndef CBVLINK_SERVICE_LINKAGE_SERVICE_H_
#define CBVLINK_SERVICE_LINKAGE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/blocking/matcher.h"
#include "src/common/execution.h"
#include "src/common/thread_pool.h"
#include "src/io/journal.h"
#include "src/io/serialization.h"
#include "src/linkage/online_linker.h"
#include "src/text/alphabet.h"

namespace cbvlink {

namespace telemetry {
class Counter;
class Histogram;
class Registry;
}  // namespace telemetry

/// What a query does when a probed bucket hit the bucket-size cap.
enum class OverflowPolicy : uint32_t {
  /// Accept the capped bucket as-is (bounded latency, possible recall
  /// loss on the overpopulated key).
  kTruncate = 0,
  /// Additionally scan the whole vector store for that query, so recall
  /// is preserved at a latency cost paid only by affected queries.
  kScanFallback = 1,
};

/// Service-layer options on top of CbvHbConfig.
struct LinkageServiceOptions {
  /// Bucket entry cap; 0 = unlimited.  A bucket keeps its first
  /// max_bucket_size ids in insertion order and drops the rest.  A
  /// compaction or a snapshot restore rebuilds the index in id order, so
  /// a capped bucket then keeps its lowest live ids.
  size_t max_bucket_size = 0;
  OverflowPolicy overflow_policy = OverflowPolicy::kScanFallback;
  /// Execution policy for the batch APIs and snapshot restore.  A
  /// supplied pool is borrowed (must outlive the service); otherwise the
  /// service owns a pool of `execution.num_threads` workers
  /// (0 = hardware concurrency, the service default).
  ExecutionOptions execution = ExecutionOptions::WithThreads(0);
  /// Dead-slot ratio (tombstones / (live + tombstones)) at which the
  /// background compactor rewrites the index.  Only consulted by
  /// StartBackgroundCompaction.
  double compaction_dead_ratio = 0.25;
  /// Poll cadence of the background compactor thread.
  std::chrono::milliseconds compaction_interval{200};
};

/// A point-in-time copy of the service counters.
struct ServiceMetrics {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t updates = 0;
  /// Records currently live (stored and not tombstoned).
  uint64_t live_records = 0;
  /// Tombstoned ids awaiting compaction.
  uint64_t tombstones = 0;
  /// Compaction runs completed, and stale index entries they reclaimed.
  uint64_t compactions = 0;
  uint64_t compaction_reclaimed = 0;
  uint64_t queries = 0;
  uint64_t candidate_occurrences = 0;
  uint64_t comparisons = 0;
  uint64_t matches = 0;
  uint64_t scan_fallbacks = 0;
  uint64_t dropped_entries = 0;
  /// 1 when RestoreFromFile served this process from the .bak snapshot
  /// because the primary was corrupt.
  uint64_t restore_fallbacks = 0;
  /// Malformed input rows the feeding layer skipped (RecordSkippedRows).
  uint64_t skipped_rows = 0;
  /// Busy time summed across calls — and across threads for the batch
  /// APIs, so with T workers this can exceed wall time by up to T×.
  double insert_seconds = 0;
  double query_seconds = 0;
  /// Wall-clock span from the first call's start to the last call's
  /// end (0 before any call).  Under the batch APIs this is the real
  /// elapsed time, not the per-thread sum; it also includes idle gaps
  /// between calls, so it measures the serving window, not busy time.
  double insert_wall_seconds = 0;
  double query_wall_seconds = 0;

  /// Mean per-call latency (busy time / calls; thread count does not
  /// distort this one).
  double AvgQueryMicros() const {
    return queries == 0 ? 0 : query_seconds * 1e6 / static_cast<double>(queries);
  }
  /// Wall-clock throughput: queries / query_wall_seconds.  This is the
  /// number operators compare against offered load.
  double QueriesPerSecond() const {
    return query_wall_seconds <= 0
               ? 0
               : static_cast<double>(queries) / query_wall_seconds;
  }
  /// Per-thread throughput: queries / summed busy seconds.  With T
  /// batch workers this is ~QueriesPerSecond() / T — useful for
  /// spotting per-core regressions, misleading as "QPS" (the bug the
  /// old single QueriesPerSecond() had).
  double PerThreadQueriesPerSecond() const {
    return query_seconds <= 0 ? 0 : static_cast<double>(queries) / query_seconds;
  }
};

/// The concurrent linkage service.  All public methods are thread-safe.
class LinkageService {
 public:
  /// Creates a service.  `config` follows CbvHbLinker semantics except
  /// that attribute-level blocking is rejected (the service indexes
  /// record-level HB).  When config.expected_qgrams is empty they are
  /// estimated from `calibration_sample` (which must then be non-empty).
  static Result<std::unique_ptr<LinkageService>> Create(
      CbvHbConfig config, LinkageServiceOptions options = {},
      const std::vector<Record>& calibration_sample = {});

  /// Rebuilds a service from a snapshot: Create() over the persisted
  /// configuration and seed (which reproduce the encoder and the LSH
  /// family), then the id-sorted index build Compact() runs over the
  /// persisted records, so the restored service answers as the saved one
  /// would after Compact().  The mutation state (version 3+) — tombstoned
  /// ids and the delete/update sequence floor — is loaded too, so a
  /// restore keeps deleted records dead.  The snapshot is semantically
  /// validated first (finite parameters, known overflow policy, unique
  /// record ids, tombstones disjoint from the records, record widths
  /// matching the rebuilt encoder) — InvalidArgument on any violation.
  /// The bucket cap and overflow policy come from the snapshot; the
  /// batch APIs and the rebuild run under the caller's `execution`, as
  /// LinkageServiceOptions::execution does for Create().
  static Result<std::unique_ptr<LinkageService>> Restore(
      const ServiceSnapshot& snapshot,
      const ExecutionOptions& execution = ExecutionOptions::WithThreads(0));

  /// Restores the snapshotted records *and tombstones* from `path`; when
  /// the primary file is corrupt or invalid, falls back to the backup
  /// the atomic saver keeps at SnapshotBackupPath(path)
  /// (metrics().restore_fallbacks records the fallback).  `path.tmp` is
  /// never trusted — rename is the commit point.  Returns the primary's
  /// error when both fail.  `execution` as for Restore().
  static Result<std::unique_ptr<LinkageService>> RestoreFromFile(
      const std::string& path,
      const ExecutionOptions& execution = ExecutionOptions::WithThreads(0));

  /// Stops the background compactor, if running.
  ~LinkageService();

  /// Encodes and indexes one registry record.
  Status Insert(const Record& record);

  /// Matches one query against everything indexed so far; appends
  /// (registry_id, query_id) pairs to `out` in ascending registry id.
  /// Never blocks other Match calls; may wait for one write.
  Status Match(const Record& record, std::vector<IdPair>* out) const;

  /// Match, then insert the query so future arrivals can link to it.
  Status MatchAndInsert(const Record& record, std::vector<IdPair>* out);

  /// Tombstones `id`: its arena slot's dead bit is set immediately (O(1);
  /// no index surgery — stale bucket entries are skipped by the matcher
  /// and reclaimed by compaction), the delete is journaled with its
  /// acknowledgement sequence, and subsequent Matches never return the
  /// record.  NotFound when `id` is not live.
  Status Delete(RecordId id);

  /// Replaces the record's fields: re-encodes, brings the record's arena
  /// slot back with the new bits, and indexes the new blocking keys.  Old
  /// keys keep serving the id as a candidate, but classification runs on
  /// the current bits, so match results equal a fresh build.  NotFound
  /// when `record.id` is not live.
  Status Update(const Record& record);

  /// Applies one replayed/replicated mutation WITHOUT journaling it — the
  /// shared apply path of journal replay, replication, and snapshot
  /// reconcile.  Semantics differ from the live calls where idempotency
  /// requires it: insert is skipped when the id is already stored, delete
  /// of an unknown id is a no-op, update upserts.  Sequenced ops at or
  /// below the service's sequence floor are skipped (the snapshot already
  /// reflects them).  Returns true when state changed.
  Result<bool> ApplyMutation(const MutationOp& op);

  /// Rebuilds the arena and the blocking tables from the live survivors
  /// (sorted by id) and publishes them with an atomic epoch swap: dead
  /// slots and stale bucket entries (tombstoned or superseded blocking
  /// keys) are gone, the tombstone set is cleared, and match output is
  /// byte-identical before and after, except that a capped bucket now
  /// keeps its lowest live ids and an updated record's old keys are
  /// gone.  Blocks mutators for the rebuild (the "compaction pause");
  /// never blocks Match.
  Status Compact();

  /// Starts the background compactor: every options().compaction_interval
  /// it compares the dead ratio against options().compaction_dead_ratio
  /// and runs Compact() when crossed.  Idempotent; stopped by
  /// StopBackgroundCompaction or the destructor.
  void StartBackgroundCompaction();
  void StopBackgroundCompaction();

  /// Bulk insert: encodes over the service thread pool, then stores and
  /// indexes the whole batch in one exclusive section, in record order
  /// (a repeated id ends with its last record's bits, as with Insert).
  Status InsertBatch(const std::vector<Record>& records);

  /// Parallel bulk match over the service pool: appends to `out` the
  /// pairs a Match loop over `records` would, in the same order, at any
  /// thread count.  On error returns the first failing record's error
  /// (in record order) and leaves `out` untouched.
  Status MatchBatch(const std::vector<Record>& records,
                    std::vector<IdPair>* out);

  /// Attaches the mutation journal: every subsequent acknowledged
  /// mutation (Insert/MatchAndInsert/Delete/Update and InsertBatch) is
  /// appended (and fsynced per the journal's policy) BEFORE the call
  /// returns, so an acknowledged mutation survives a crash as snapshot +
  /// journal tail.  SaveSnapshotToFile drops the journal prefix the
  /// snapshot covers.  Attach AFTER ReplayJournalFile, or replayed
  /// frames are re-appended.
  void AttachJournal(std::shared_ptr<Journal> journal);
  std::shared_ptr<Journal> journal() const;

  /// Replays the journal at `path` into this service through
  /// ApplyMutation: inserts whose id is already stored and sequenced
  /// delete/update frames at or below the snapshot's sequence floor are
  /// skipped (which is what makes a crash between snapshot commit and
  /// journal rotation harmless).  stats.applied counts the mutations
  /// actually applied.
  Result<JournalReplayStats> ReplayJournalFile(const std::string& path);

  /// Reconciles this live service with `snapshot`: records absent here
  /// are indexed as-is (no re-encoding), ids the snapshot tombstones are
  /// deleted here, and local live ids the snapshot carries neither live
  /// nor tombstoned are deleted too (the primary may have compacted its
  /// tombstones away — absence from a newer snapshot means deleted).
  /// This is the replication follower's re-sync path — the service
  /// object (and every pointer a serving NetServer holds to it) stays
  /// stable while the state catches up past a journal rotation.  All
  /// record widths are validated against this service's encoder before
  /// anything is applied; InvalidArgument leaves the service unchanged.
  /// Returns the number of mutations actually applied.
  Result<uint64_t> MergeSnapshotRecords(const ServiceSnapshot& snapshot);

  /// True when a record with `id` is stored and live (tombstoned ids
  /// report false).
  bool Contains(RecordId id) const;

  /// Captures the full service state for persistence.
  ServiceSnapshot ExportSnapshot() const;
  Status SaveSnapshot(std::ostream& out) const;
  /// Atomic snapshot save; with a journal attached, additionally drops
  /// the journal prefix captured before the export began (frames kept
  /// past the mark may duplicate snapshot contents — replay dedupes).
  Status SaveSnapshotToFile(const std::string& path) const;

  /// A point-in-time copy of the counters.
  ServiceMetrics metrics() const;

  /// Refreshes the polled (gauge) telemetry in `registry`: record/index
  /// sizes, per-table LSH health (bucket count, max/mean bucket size,
  /// overflow counts) and the cross-table bucket-occupancy histogram —
  /// the runtime observables of Theorem 1's m_opt and Eq. 2's L.  Call
  /// before exporting (stats reporter tick, scrape, shutdown dump); the
  /// event-driven metrics (latency histograms, funnel counters) are
  /// maintained live and need no refresh.  Takes the index lock shared
  /// for one pass over the tables; do not call from a latency-critical
  /// path.  Null
  /// `registry` targets the process-wide telemetry::Registry::Global().
  void FillTelemetry(telemetry::Registry* registry = nullptr) const;

  /// Lets the feeding layer (e.g. the serve CLI) account malformed input
  /// rows it skipped, so operational dashboards see them next to the
  /// serving counters.
  void RecordSkippedRows(uint64_t n);

  /// Live records.
  size_t size() const;
  /// Tombstoned ids awaiting compaction.
  size_t tombstone_count() const {
    return tombstone_count_.load(std::memory_order_relaxed);
  }
  /// Highest acknowledged delete/update sequence.
  uint64_t last_sequence() const {
    return sequence_.load(std::memory_order_relaxed);
  }
  size_t blocking_groups() const;
  const CVectorRecordEncoder& encoder() const { return encoder_; }
  /// The thread pool behind the batch calls (owned, or borrowed from the
  /// execution options; never null).  Callers may run their own
  /// ParallelFor on it, e.g. the network server's pipelined matches.
  ThreadPool* pool() const { return pool_; }
  const LinkageServiceOptions& options() const { return options_; }

 private:
  /// One index epoch: an HbIndex and the tombstones, behind one
  /// reader/writer lock (linkage_service.cc).
  struct Core;

  LinkageService(CbvHbConfig config, LinkageServiceOptions options,
                 CbvHbParts parts);

  /// A core over `records`, sorted by id, with the service's bucket cap:
  /// what Compact() and Restore() publish.
  std::shared_ptr<Core> BuildCore(
      const std::vector<EncodedRecord>& records) const;

  /// Pins the current index epoch: the returned shared_ptr keeps that
  /// core alive even if the compactor publishes a successor mid-call; the
  /// old epoch is retired when the last pin drops.
  std::shared_ptr<Core> PinCore() const {
    std::shared_lock lock(core_mu_);
    return core_;
  }

  /// Algorithm 2 against the current core, plus the overflow fallback.
  /// `b` must be encoded by this service's encoder.
  void MatchEncoded(const EncodedRecord& b, std::vector<IdPair>* out) const;

  /// Writes `record` into the current core (an insert, an update, or
  /// bringing a tombstoned id back).  With `only_live`, writes nothing
  /// and returns false unless the id is live.
  bool Put(const EncodedRecord& record, bool only_live = false);

  /// Insert without the journal append.
  Status InsertUnjournaled(const Record& record);

  /// InvalidArgument unless the snapshot's records fit the encoder.
  Status CheckWidths(const ServiceSnapshot& snapshot) const;

  /// Tombstones `id` in the current core and counts the delete; false
  /// when `id` is not live.
  bool Kill(RecordId id);

  /// Appends `record` as an insert frame to the attached journal, if any.
  Status JournalAppend(const Record& record);
  /// Appends any mutation frame to the attached journal, if any.
  Status JournalAppend(const MutationOp& op);

  /// The compactor thread body (poll loop around Compact()).
  void CompactorLoop();

  CbvHbConfig config_;
  LinkageServiceOptions options_;
  /// Alphabets reconstructed from a snapshot (Create()d services borrow
  /// the caller's alphabets instead).
  std::vector<std::unique_ptr<Alphabet>> owned_alphabets_;
  CVectorRecordEncoder encoder_;
  /// The current index epoch.  Readers pin it via PinCore(); Compact()
  /// publishes a successor under the unique lock.  Never null.
  mutable std::shared_mutex core_mu_;
  std::shared_ptr<Core> core_;
  PairClassifier classifier_;

  /// Mutation/compaction exclusion: every mutator (insert/delete/update,
  /// live or replayed) holds it shared; Compact()'s rebuild+swap holds it
  /// unique so no mutation lands between the survivor export and the
  /// epoch swap (it would vanish from the new core).  Match never
  /// touches this lock.
  mutable std::shared_mutex compaction_mu_;

  /// The current core's tombstone count, readable without its lock.
  mutable std::atomic<uint64_t> tombstone_count_{0};
  /// Monotonic delete/update acknowledgement sequence; doubles as the
  /// replay dedupe floor (Restore seeds it from the snapshot).
  std::atomic<uint64_t> sequence_{0};

  /// Background compactor state.
  std::thread compactor_;
  std::mutex compactor_mu_;
  std::condition_variable compactor_cv_;
  bool compactor_stop_ = false;
  // ParallelFor keeps a per-call completion latch, so concurrent batch
  // calls share the pool without serializing on each other.  `pool_`
  // points at either the owned pool or a borrowed
  // options_.execution.pool (never null).
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;

  /// The attached insert journal (null until AttachJournal).  Guarded by
  /// journal_mu_ only for the pointer swap; Journal itself is
  /// thread-safe.
  mutable std::mutex journal_mu_;
  std::shared_ptr<Journal> journal_;

  /// Nanoseconds since `epoch_` (the service's construction instant —
  /// the zero point for the wall-clock span tracking below).
  uint64_t NowNanos() const;

  /// Folds one call's [start, end) span (NowNanos() values) into the
  /// busy-time sum and the first-start/last-end wall markers.
  static void RecordSpan(uint64_t start, uint64_t end,
                         std::atomic<uint64_t>* nanos,
                         std::atomic<uint64_t>* first_start,
                         std::atomic<uint64_t>* last_end);

  // Counters (relaxed; read via metrics()).
  mutable std::atomic<uint64_t> inserts_{0};
  mutable std::atomic<uint64_t> deletes_{0};
  mutable std::atomic<uint64_t> updates_{0};
  mutable std::atomic<uint64_t> compactions_{0};
  mutable std::atomic<uint64_t> compaction_reclaimed_{0};
  mutable std::atomic<uint64_t> queries_{0};
  mutable std::atomic<uint64_t> candidate_occurrences_{0};
  mutable std::atomic<uint64_t> comparisons_{0};
  mutable std::atomic<uint64_t> matches_{0};
  mutable std::atomic<uint64_t> scan_fallbacks_{0};
  mutable std::atomic<uint64_t> restore_fallbacks_{0};
  mutable std::atomic<uint64_t> skipped_rows_{0};
  mutable std::atomic<uint64_t> insert_nanos_{0};
  mutable std::atomic<uint64_t> query_nanos_{0};
  // Wall-clock activity spans (see ServiceMetrics::*_wall_seconds):
  // first call start and last call end, as NowNanos() values.
  std::chrono::steady_clock::time_point epoch_;
  mutable std::atomic<uint64_t> first_query_start_ns_{UINT64_MAX};
  mutable std::atomic<uint64_t> last_query_end_ns_{0};
  mutable std::atomic<uint64_t> first_insert_start_ns_{UINT64_MAX};
  mutable std::atomic<uint64_t> last_insert_end_ns_{0};

  // Process-wide telemetry handles (resolved once at construction; the
  // registry outlives every service, so raw pointers are safe).
  telemetry::Histogram* t_query_latency_ = nullptr;
  telemetry::Histogram* t_insert_latency_ = nullptr;
  telemetry::Histogram* t_batch_latency_ = nullptr;
  telemetry::Counter* t_queries_ = nullptr;
  telemetry::Counter* t_inserts_ = nullptr;
  telemetry::Counter* t_deletes_ = nullptr;
  telemetry::Counter* t_updates_ = nullptr;
  telemetry::Counter* t_compactions_ = nullptr;
  telemetry::Counter* t_compaction_reclaimed_ = nullptr;
  telemetry::Histogram* t_compaction_pause_ = nullptr;
  telemetry::Counter* t_candidates_ = nullptr;
  telemetry::Counter* t_comparisons_ = nullptr;
  telemetry::Counter* t_matches_ = nullptr;
  telemetry::Counter* t_scan_fallbacks_ = nullptr;
};

}  // namespace cbvlink

#endif  // CBVLINK_SERVICE_LINKAGE_SERVICE_H_
