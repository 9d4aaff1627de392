#include "src/service/linkage_service.h"

#include <pthread.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <span>
#include <tuple>
#include <unordered_set>

#include "src/common/failpoint.h"
#include "src/common/hamming_kernels.h"
#include "src/common/str.h"
#include "src/rules/rule_parser.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace cbvlink {

namespace {

void AtomicMinRelaxed(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (cur > value &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMaxRelaxed(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (cur < value &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

/// A reader/writer lock whose waiting writers hold back new readers.
/// glibc's std::shared_mutex prefers readers, so a steady stream of
/// overlapping Matches could starve a mutator forever; here a Match waits
/// for at most the writes already queued.  Readers must not re-lock
/// shared while holding the lock (a queued writer would deadlock them).
class WriterPreferringMutex {
 public:
  WriterPreferringMutex() {
    pthread_rwlockattr_t attr;
    pthread_rwlockattr_init(&attr);
#ifdef __GLIBC__
    pthread_rwlockattr_setkind_np(
        &attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
#endif
    pthread_rwlock_init(&rw_, &attr);
    pthread_rwlockattr_destroy(&attr);
  }
  ~WriterPreferringMutex() { pthread_rwlock_destroy(&rw_); }
  WriterPreferringMutex(const WriterPreferringMutex&) = delete;
  WriterPreferringMutex& operator=(const WriterPreferringMutex&) = delete;

  void lock() { pthread_rwlock_wrlock(&rw_); }
  void unlock() { pthread_rwlock_unlock(&rw_); }
  void lock_shared() { pthread_rwlock_rdlock(&rw_); }
  void unlock_shared() { pthread_rwlock_unlock(&rw_); }

 private:
  pthread_rwlock_t rw_;
};

/// Per-thread matcher scratch (the stamp array and the staging buffers).
/// Stamps are epoch-tagged per probe, so one scratch serves every core
/// and every service a thread touches.
Matcher::Scratch& ThreadScratch() {
  thread_local Matcher::Scratch scratch;
  return scratch;
}

}  // namespace

struct LinkageService::Core {
  explicit Core(HbIndex index) : index(std::move(index)) {}

  /// Overwrites `record` in its id's slot (HbIndex::Put): an update of a
  /// live id, or an insert that brings a tombstoned id back.  Bucket
  /// entries written for the id's old bits still name its slot.
  void Put(const EncodedRecord& record) {
    index.Put(record);
    if (!tombstones.empty()) tombstones.erase(record.id);
  }

  /// Put for every record, with `keys` = index.KeyMatrix(records).
  void PutAll(std::span<const EncodedRecord> records,
              std::span<const uint64_t> keys) {
    index.PutAll(records, keys);
    if (tombstones.empty()) return;
    for (const EncodedRecord& record : records) tombstones.erase(record.id);
  }

  /// Sets `id`'s dead-slot bit and tombstones it; false when not live.
  bool Kill(RecordId id) {
    if (!index.Remove(id)) return false;
    tombstones.insert(id);
    return true;
  }

  const std::vector<BlockingTable>& tables() const {
    return index.blocker().tables();
  }

  size_t NumEntries() const {
    size_t total = 0;
    for (const BlockingTable& table : tables()) total += table.NumEntries();
    return total;
  }

  /// Mutators hold it exclusive; Match, snapshots and telemetry shared.
  mutable WriterPreferringMutex mu;
  HbIndex index;
  /// Deleted ids awaiting compaction: the dead slots, plus ids a restored
  /// snapshot tombstoned (those have no slot).  Persisted by snapshots.
  std::unordered_set<RecordId> tombstones;
};

LinkageService::LinkageService(CbvHbConfig config,
                               LinkageServiceOptions options,
                               CbvHbParts parts)
    : config_(std::move(config)),
      options_(options),
      encoder_(std::move(parts.encoder)),
      core_(std::make_shared<Core>(
          parts.index.EmptyCopy(options.max_bucket_size))),
      classifier_(std::move(parts.classifier)),
      epoch_(std::chrono::steady_clock::now()) {
  const ExecutionOptions& exec = options_.execution;
  if (exec.pool != nullptr) {
    pool_ = exec.pool;
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(exec.num_threads);
    pool_ = owned_pool_.get();
  }

  // Resolve process-wide telemetry handles once; every Record/Add after
  // this point is lock-free.  Several services in one process share
  // these series by design (the registry is process-scoped).
  telemetry::Registry& reg = telemetry::Registry::Global();
  t_query_latency_ = reg.GetHistogram("query_latency_us");
  t_insert_latency_ = reg.GetHistogram("insert_latency_us");
  t_batch_latency_ = reg.GetHistogram("batch_latency_us");
  t_queries_ = reg.GetCounter("service_queries_total");
  t_inserts_ = reg.GetCounter("service_inserts_total");
  t_deletes_ = reg.GetCounter("service_deletes_total");
  t_updates_ = reg.GetCounter("service_updates_total");
  t_compactions_ = reg.GetCounter("compaction_runs_total");
  t_compaction_reclaimed_ = reg.GetCounter("compaction_reclaimed_total");
  t_compaction_pause_ = reg.GetHistogram("compaction_pause_us");
  t_candidates_ = reg.GetCounter("service_candidates_total");
  t_comparisons_ = reg.GetCounter("service_comparisons_total");
  t_matches_ = reg.GetCounter("service_matches_total");
  t_scan_fallbacks_ = reg.GetCounter("service_scan_fallbacks_total");
}

Result<std::unique_ptr<LinkageService>> LinkageService::Create(
    CbvHbConfig config, LinkageServiceOptions options,
    const std::vector<Record>& calibration_sample) {
  if (config.attribute_level_blocking) {
    return Status::InvalidArgument(
        "LinkageService indexes record-level HB blocking; "
        "attribute-level structures are not supported");
  }
  CBVLINK_RETURN_NOT_OK(ResolveExpectedQGrams(&config, calibration_sample));
  // The engine's factory and draw order: Restore() depends on the seed
  // reproducing the encoder and the LSH family exactly.
  Rng rng(config.seed);
  Result<CbvHbParts> parts = MakeCbvHbParts(config, rng);
  if (!parts.ok()) return parts.status();
  return std::unique_ptr<LinkageService>(new LinkageService(
      std::move(config), options, std::move(parts).value()));
}

LinkageService::~LinkageService() { StopBackgroundCompaction(); }

std::shared_ptr<LinkageService::Core> LinkageService::BuildCore(
    const std::vector<EncodedRecord>& records) const {
  auto core = std::make_shared<Core>(
      PinCore()->index.EmptyCopy(options_.max_bucket_size));
  core->index.InsertAll(records, pool_);
  return core;
}

void LinkageService::Publish(std::shared_ptr<Core> core) {
  tombstone_count_.store(core->tombstones.size(), std::memory_order_relaxed);
  // In-flight Matches pinned the old core and drain on it; the last pin
  // retires it.  `old` is that pin here, dropped after the swap lock.
  const std::shared_ptr<Core> old = PinCore();
  std::unique_lock swap_lock(core_mu_);
  core_ = std::move(core);
}

size_t LinkageService::blocking_groups() const {
  return PinCore()->index.blocking_groups();
}

size_t LinkageService::size() const {
  const std::shared_ptr<Core> core = PinCore();
  std::shared_lock lock(core->mu);
  return core->index.store().live_size();
}

uint64_t LinkageService::NowNanos() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void LinkageService::RecordSpan(uint64_t start, uint64_t end,
                                std::atomic<uint64_t>* nanos,
                                std::atomic<uint64_t>* first_start,
                                std::atomic<uint64_t>* last_end) {
  nanos->fetch_add(end - start, std::memory_order_relaxed);
  AtomicMinRelaxed(first_start, start);
  AtomicMaxRelaxed(last_end, end);
}

bool LinkageService::Put(const EncodedRecord& record, bool only_live) {
  CBVLINK_FAILPOINT_DELAY("index.insert");
  // Shared against the compactor: no write may land between its
  // survivor export and the epoch swap, or it would vanish from the
  // published core.
  std::shared_lock compaction_guard(compaction_mu_);
  const std::shared_ptr<Core> core = PinCore();
  std::unique_lock lock(core->mu);
  if (only_live && !core->index.IsLive(record.id)) return false;
  core->Put(record);
  tombstone_count_.store(core->tombstones.size(), std::memory_order_relaxed);
  return true;
}

Status LinkageService::InsertUnjournaled(const Record& record) {
  CBVLINK_FAILPOINT("service.insert");
  const uint64_t start = NowNanos();
  telemetry::TraceSpan encode_span("encode");
  Result<EncodedRecord> encoded = encoder_.Encode(record);
  encode_span.End();
  if (!encoded.ok()) return encoded.status();
  telemetry::TraceSpan insert_span("insert");
  Put(encoded.value());
  insert_span.End();
  const uint64_t end = NowNanos();
  inserts_.fetch_add(1, std::memory_order_relaxed);
  RecordSpan(start, end, &insert_nanos_, &first_insert_start_ns_,
             &last_insert_end_ns_);
  t_inserts_->Add(1);
  t_insert_latency_->Record((end - start) / 1000);
  return Status::OK();
}

Status LinkageService::Insert(const Record& record) {
  CBVLINK_RETURN_NOT_OK(InsertUnjournaled(record));
  return JournalAppend(record);
}

Status LinkageService::JournalAppend(const Record& record) {
  std::shared_ptr<Journal> journal = this->journal();
  if (journal == nullptr) return Status::OK();
  telemetry::TraceSpan span("journal");
  const uint64_t before = span.active() ? journal->EndOffset() : 0;
  Status st = journal->AppendInsert(record);
  if (span.active() && st.ok()) {
    // Approximate under concurrent appends (the delta may include a
    // neighbour's frame); exact enough to explain an fsync stall.
    span.Annotate("bytes", journal->EndOffset() - before);
  }
  return st;
}

Status LinkageService::JournalAppend(const MutationOp& op) {
  std::shared_ptr<Journal> journal = this->journal();
  if (journal == nullptr) return Status::OK();
  telemetry::TraceSpan span("journal");
  return journal->Append(op);
}

bool LinkageService::Kill(RecordId id) {
  std::shared_lock compaction_guard(compaction_mu_);
  const std::shared_ptr<Core> core = PinCore();
  std::unique_lock lock(core->mu);
  if (!core->Kill(id)) return false;
  tombstone_count_.store(core->tombstones.size(), std::memory_order_relaxed);
  deletes_.fetch_add(1, std::memory_order_relaxed);
  t_deletes_->Add(1);
  return true;
}

Status LinkageService::Delete(RecordId id) {
  CBVLINK_FAILPOINT("service.delete");
  if (!Kill(id)) {
    return Status::NotFound(
        StrFormat("record %llu is not live", static_cast<unsigned long long>(id)));
  }
  // Stamp the acknowledgement sequence AFTER the state change: a
  // snapshot reads the floor before exporting, so floor >= seq implies
  // the removal is already in the export.
  const uint64_t sequence =
      sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  return JournalAppend(MutationOp::Delete(id, sequence));
}

Status LinkageService::Update(const Record& record) {
  CBVLINK_FAILPOINT("service.update");
  telemetry::TraceSpan encode_span("encode");
  Result<EncodedRecord> encoded = encoder_.Encode(record);
  encode_span.End();
  if (!encoded.ok()) return encoded.status();
  // Bring the slot back with the new bits and index the new blocking
  // keys.  Keys from the previous bits stay until compaction; they only
  // ever produce candidates that classify on the new bits.
  if (!Put(encoded.value(), /*only_live=*/true)) {
    return Status::NotFound(StrFormat(
        "record %llu is not live", static_cast<unsigned long long>(record.id)));
  }
  const uint64_t sequence =
      sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  updates_.fetch_add(1, std::memory_order_relaxed);
  t_updates_->Add(1);
  return JournalAppend(MutationOp::Update(record, sequence));
}

Result<bool> LinkageService::ApplyMutation(const MutationOp& op) {
  switch (op.kind) {
    case MutationKind::kInsert: {
      // Replay dedupe by id: the restored snapshot (or an earlier frame)
      // already carries the record.  Re-inserting would resurrect a
      // tombstone the journal deletes later — the skip is what keeps
      // replay order and live order equivalent.
      if (Contains(op.record.id)) return false;
      CBVLINK_RETURN_NOT_OK(InsertUnjournaled(op.record));
      return true;
    }
    case MutationKind::kDelete: {
      if (op.sequence != 0 &&
          op.sequence <= sequence_.load(std::memory_order_relaxed)) {
        return false;  // at or below the snapshot's sequence floor
      }
      AtomicMaxRelaxed(&sequence_, op.sequence);
      return Kill(op.record.id);  // idempotent
    }
    case MutationKind::kUpdate: {
      if (op.sequence != 0 &&
          op.sequence <= sequence_.load(std::memory_order_relaxed)) {
        return false;
      }
      AtomicMaxRelaxed(&sequence_, op.sequence);
      Result<EncodedRecord> encoded = encoder_.Encode(op.record);
      if (!encoded.ok()) return encoded.status();
      // Upsert: in replay order the record existed when the update was
      // acknowledged, but a snapshot/journal overlap can present the
      // update before the insert frame is deduped — applying it as an
      // insert converges to the same state.
      Put(encoded.value());
      updates_.fetch_add(1, std::memory_order_relaxed);
      t_updates_->Add(1);
      return true;
    }
  }
  return Status::InvalidArgument("unknown mutation kind");
}

void LinkageService::AttachJournal(std::shared_ptr<Journal> journal) {
  std::scoped_lock lock(journal_mu_);
  journal_ = std::move(journal);
}

std::shared_ptr<Journal> LinkageService::journal() const {
  std::scoped_lock lock(journal_mu_);
  return journal_;
}

bool LinkageService::Contains(RecordId id) const {
  const std::shared_ptr<Core> core = PinCore();
  std::shared_lock lock(core->mu);
  return core->index.IsLive(id);
}

Result<JournalReplayStats> LinkageService::ReplayJournalFile(
    const std::string& path) {
  uint64_t applied = 0;
  Result<JournalReplayStats> replayed =
      ReplayJournal(path, [this, &applied](const MutationOp& op) {
        Result<bool> changed = ApplyMutation(op);
        if (!changed.ok()) return changed.status();
        if (changed.value()) ++applied;
        return Status::OK();
      });
  if (!replayed.ok()) return replayed;
  JournalReplayStats stats = replayed.value();
  stats.applied = applied;
  return stats;
}

Status LinkageService::Compact() {
  // Exclusive against mutators (they hold compaction_mu_ shared): from
  // here to the epoch swap the live set is frozen, so the rebuilt core
  // covers exactly the survivors.  Match never takes this lock — readers
  // keep serving the old epoch throughout; this exclusive section is the
  // "compaction pause" and it stalls writes only.
  const uint64_t pause_start = NowNanos();
  std::unique_lock compaction_guard(compaction_mu_);
  const std::shared_ptr<Core> old_core = PinCore();
  std::vector<EncodedRecord> survivors;
  size_t before = 0;
  {
    std::shared_lock lock(old_core->mu);
    survivors = old_core->index.store().LiveRecords();
    before = old_core->NumEntries();
  }
  // Deterministic rebuild: the arena and the tables over id-sorted
  // survivors are what a fresh build of the live set produces.  No core
  // lock is held, so the pool is free to run the table build.
  std::shared_ptr<Core> fresh = BuildCore(survivors);
  const size_t after = fresh->NumEntries();
  const uint64_t reclaimed = before > after ? before - after : 0;
  Publish(std::move(fresh));
  compactions_.fetch_add(1, std::memory_order_relaxed);
  compaction_reclaimed_.fetch_add(reclaimed, std::memory_order_relaxed);
  t_compactions_->Add(1);
  if (reclaimed != 0) t_compaction_reclaimed_->Add(reclaimed);
  t_compaction_pause_->Record((NowNanos() - pause_start) / 1000);
  return Status::OK();
}

void LinkageService::CompactorLoop() {
  std::unique_lock lock(compactor_mu_);
  while (!compactor_stop_) {
    compactor_cv_.wait_for(lock, options_.compaction_interval,
                           [this] { return compactor_stop_; });
    if (compactor_stop_) break;
    const uint64_t dead = tombstone_count_.load(std::memory_order_relaxed);
    if (dead == 0) continue;
    const size_t live = size();
    const double ratio =
        static_cast<double>(dead) / static_cast<double>(dead + live);
    if (ratio < options_.compaction_dead_ratio) continue;
    lock.unlock();
    Status st = Compact();
    if (!st.ok()) {
      std::fprintf(stderr, "cbvlink: background compaction failed: %s\n",
                   st.ToString().c_str());
    }
    lock.lock();
  }
}

void LinkageService::StartBackgroundCompaction() {
  std::scoped_lock lock(compactor_mu_);
  if (compactor_.joinable()) return;
  compactor_stop_ = false;
  compactor_ = std::thread([this] { CompactorLoop(); });
}

void LinkageService::StopBackgroundCompaction() {
  std::thread worker;
  {
    std::scoped_lock lock(compactor_mu_);
    compactor_stop_ = true;
    worker = std::move(compactor_);
  }
  compactor_cv_.notify_all();
  if (worker.joinable()) worker.join();
}

void LinkageService::MatchEncoded(const EncodedRecord& b,
                                  std::vector<IdPair>* out) const {
  CBVLINK_FAILPOINT_DELAY("index.collect");
  const size_t first_pair = out->size();
  Matcher::Scratch& scratch = ThreadScratch();
  MatchStats stats;
  {
    // Pin the epoch and hold its lock shared for the probe and the
    // compare: the compactor may publish a successor mid-call, but this
    // Match finishes on the core it started on.
    telemetry::TraceSpan candidates_span("candidates");
    const std::shared_ptr<Core> core = PinCore();
    std::shared_lock lock(core->mu);
    const Matcher& matcher = core->index.matcher();
    const uint64_t* const row = b.bits.words().data();
    const bool saw_overflow = matcher.Probe(row, &stats, &scratch);
    candidates_span.Annotate("occurrences", stats.candidate_occurrences);
    candidates_span.Annotate(
        "candidates", stats.candidate_occurrences - stats.dedup_skipped);
    candidates_span.Annotate("overflow", saw_overflow ? 1 : 0);
    candidates_span.End();

    telemetry::TraceSpan compare_span("compare");
    matcher.Classify(b.id, row, classifier_, out, &stats, &scratch);
    if (saw_overflow &&
        options_.overflow_policy == OverflowPolicy::kScanFallback) {
      // A probed bucket dropped entries: preserve recall by classifying
      // every live record the probe did not reach, in one arena pass.
      scan_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      t_scan_fallbacks_->Add(1);
      matcher.ClassifyUnstamped(b.id, row, classifier_, out, &stats,
                                &scratch);
    }
    compare_span.Annotate("compared", stats.comparisons);
    compare_span.Annotate("matched", stats.matches);
    compare_span.End();
  }
  // A query's pairs come out in ascending registry id.
  std::sort(out->begin() + static_cast<ptrdiff_t>(first_pair), out->end());
  candidate_occurrences_.fetch_add(stats.candidate_occurrences,
                                   std::memory_order_relaxed);
  comparisons_.fetch_add(stats.comparisons, std::memory_order_relaxed);
  matches_.fetch_add(stats.matches, std::memory_order_relaxed);
  // Match-funnel telemetry: candidates -> comparisons -> matches.  The
  // ratios are the paper's RR/PQ analogues at serving time (a drifting
  // comparisons/candidates ratio means the Eq. 2 tables stopped
  // discriminating).
  t_candidates_->Add(stats.candidate_occurrences);
  t_comparisons_->Add(stats.comparisons);
  t_matches_->Add(stats.matches);
}

Status LinkageService::Match(const Record& record,
                             std::vector<IdPair>* out) const {
  CBVLINK_FAILPOINT("service.match");
  const uint64_t start = NowNanos();
  telemetry::TraceSpan encode_span("encode");
  Result<EncodedRecord> encoded = encoder_.Encode(record);
  encode_span.End();
  if (!encoded.ok()) return encoded.status();
  MatchEncoded(encoded.value(), out);
  const uint64_t end = NowNanos();
  queries_.fetch_add(1, std::memory_order_relaxed);
  RecordSpan(start, end, &query_nanos_, &first_query_start_ns_,
             &last_query_end_ns_);
  t_queries_->Add(1);
  t_query_latency_->Record((end - start) / 1000);
  return Status::OK();
}

Status LinkageService::MatchAndInsert(const Record& record,
                                      std::vector<IdPair>* out) {
  CBVLINK_FAILPOINT("service.match");
  CBVLINK_FAILPOINT("service.insert");
  const uint64_t start = NowNanos();
  telemetry::TraceSpan encode_span("encode");
  Result<EncodedRecord> encoded = encoder_.Encode(record);
  encode_span.End();
  if (!encoded.ok()) return encoded.status();
  MatchEncoded(encoded.value(), out);
  const uint64_t mid = NowNanos();
  queries_.fetch_add(1, std::memory_order_relaxed);
  RecordSpan(start, mid, &query_nanos_, &first_query_start_ns_,
             &last_query_end_ns_);
  t_queries_->Add(1);
  t_query_latency_->Record((mid - start) / 1000);
  telemetry::TraceSpan insert_span("insert");
  Put(encoded.value());
  insert_span.End();
  const uint64_t end = NowNanos();
  inserts_.fetch_add(1, std::memory_order_relaxed);
  RecordSpan(mid, end, &insert_nanos_, &first_insert_start_ns_,
             &last_insert_end_ns_);
  t_inserts_->Add(1);
  t_insert_latency_->Record((end - mid) / 1000);
  return JournalAppend(record);
}

Status LinkageService::InsertBatch(const std::vector<Record>& records) {
  CBVLINK_FAILPOINT("service.insert");
  telemetry::ScopedTimer batch_timer(t_batch_latency_);
  const uint64_t start = NowNanos();
  telemetry::TraceSpan encode_span("encode");
  encode_span.Annotate("records", records.size());
  Result<std::vector<EncodedRecord>> encoded =
      encoder_.EncodeAll(records, pool_);
  encode_span.End();
  if (!encoded.ok()) return encoded.status();
  {
    telemetry::TraceSpan insert_span("insert");
    const std::vector<EncodedRecord>& batch = encoded.value();
    // The key matrix depends only on the hash family, which every core
    // shares: compute it on the pool before taking any lock, so the
    // exclusive section below holds only the slot assignment and the
    // table merge.
    const std::vector<uint64_t> keys =
        PinCore()->index.KeyMatrix(batch, pool_);
    std::shared_lock compaction_guard(compaction_mu_);
    const std::shared_ptr<Core> core = PinCore();
    std::unique_lock lock(core->mu);
    // Inline: the pool's workers may be Matches waiting on this lock.
    core->PutAll(batch, keys);
    tombstone_count_.store(core->tombstones.size(),
                           std::memory_order_relaxed);
  }
  const uint64_t end = NowNanos();
  inserts_.fetch_add(records.size(), std::memory_order_relaxed);
  RecordSpan(start, end, &insert_nanos_, &first_insert_start_ns_,
             &last_insert_end_ns_);
  t_inserts_->Add(records.size());
  // Journal in record order after the apply, so the journal's frame order
  // is deterministic for a given batch; sync once at the batch boundary
  // so the whole batch is durable before the caller's acknowledgement
  // even under a relaxed per-append fsync policy.
  std::shared_ptr<Journal> journal = this->journal();
  if (journal != nullptr) {
    telemetry::TraceSpan journal_span("journal");
    const uint64_t before = journal_span.active() ? journal->EndOffset() : 0;
    for (const Record& record : records) {
      CBVLINK_RETURN_NOT_OK(journal->AppendInsert(record));
    }
    if (journal->options().fsync_every != 0) {
      CBVLINK_RETURN_NOT_OK(journal->Sync());
    }
    if (journal_span.active()) {
      journal_span.Annotate("records", records.size());
      journal_span.Annotate("bytes", journal->EndOffset() - before);
    }
  }
  return Status::OK();
}

Status LinkageService::MatchBatch(const std::vector<Record>& records,
                                  std::vector<IdPair>* out) {
  telemetry::ScopedTimer batch_timer(t_batch_latency_);
  const telemetry::TraceContext parent_ctx = telemetry::CurrentTraceContext();
  // ParallelFor's chunks are contiguous and in record order, so merging
  // their pairs in chunk order gives a Match loop's output, and the
  // first failing chunk holds the first failing record.
  std::vector<std::vector<IdPair>> chunk_pairs(pool_->num_threads());
  std::vector<Status> chunk_status(pool_->num_threads());
  pool_->ParallelFor(records.size(),
                     [&](size_t chunk, size_t begin, size_t end) {
                       telemetry::ScopedTraceContext scope(
                           parent_ctx.collector, parent_ctx.parent_span_id);
                       telemetry::TraceSpan chunk_span("match_chunk");
                       chunk_span.Annotate("begin", begin);
                       chunk_span.Annotate("count", end - begin);
                       for (size_t i = begin; i < end; ++i) {
                         chunk_status[chunk] =
                             Match(records[i], &chunk_pairs[chunk]);
                         if (!chunk_status[chunk].ok()) return;
                       }
                     });
  for (const Status& st : chunk_status) CBVLINK_RETURN_NOT_OK(st);
  for (const std::vector<IdPair>& pairs : chunk_pairs) {
    out->insert(out->end(), pairs.begin(), pairs.end());
  }
  return Status::OK();
}

ServiceSnapshot LinkageService::ExportConfiguration() const {
  ServiceSnapshot snapshot;
  for (const AttributeSpec& attr : config_.schema.attributes) {
    snapshot.attributes.push_back(SnapshotAttribute{
        attr.name, attr.alphabet->symbols(), attr.qgram.q, attr.qgram.pad});
  }
  snapshot.expected_qgrams = config_.expected_qgrams;
  snapshot.rule_text = config_.rule.ToString();
  snapshot.record_K = config_.record_K;
  snapshot.record_theta = config_.record_theta;
  snapshot.delta = config_.delta;
  snapshot.sizing_max_collisions = config_.sizing.max_collisions;
  snapshot.sizing_confidence_ratio = config_.sizing.confidence_ratio;
  snapshot.seed = config_.seed;
  snapshot.max_bucket_size = options_.max_bucket_size;
  snapshot.overflow_policy = static_cast<uint32_t>(options_.overflow_policy);
  return snapshot;
}

ServiceSnapshot LinkageService::ExportSnapshot() const {
  ServiceSnapshot snapshot = ExportConfiguration();
  // Shared against the compactor only: an epoch swap mid-export would
  // tear the records/tombstones pair apart.  Mutators also
  // hold this lock shared, so they are unaffected.
  std::shared_lock compaction_guard(compaction_mu_);
  // Read the sequence floor FIRST: any delete/update stamped at or below
  // it completed before this point (the sequence is assigned after the
  // state change), so its effect is in the export below and replay may
  // skip the frame.  Later-stamped mutations may or may not be captured;
  // their frames stay above the floor and replay re-applies them.
  snapshot.last_sequence = sequence_.load(std::memory_order_relaxed);
  // Copy the flat arena under the shared lock (a few vector copies), then
  // build the records from the copy, so a writer — and, behind it, new
  // Matches — waits for the copy only.  One lock makes the records and
  // tombstones a consistent cut.
  VectorStore store;
  {
    const std::shared_ptr<Core> core = PinCore();
    std::shared_lock lock(core->mu);
    store = core->index.store();
    snapshot.tombstones.assign(core->tombstones.begin(),
                               core->tombstones.end());
  }
  snapshot.records = store.LiveRecords();
  std::sort(snapshot.tombstones.begin(), snapshot.tombstones.end());
  return snapshot;
}

Status LinkageService::SaveSnapshot(std::ostream& out) const {
  return WriteServiceSnapshot(ExportSnapshot(), out);
}

Status LinkageService::SaveSnapshotToFile(const std::string& path) const {
  // Capture the journal mark BEFORE exporting: every frame below the
  // mark was applied before the export began and is therefore in the
  // snapshot, so dropping [0, mark) can never lose an acknowledged
  // insert.  Frames past the mark are kept even when the export also
  // caught them — replay's id-dedupe makes the overlap harmless.
  std::shared_ptr<Journal> journal = this->journal();
  const uint64_t mark = journal != nullptr ? journal->EndOffset() : 0;
  CBVLINK_RETURN_NOT_OK(WriteServiceSnapshotToFile(ExportSnapshot(), path));
  if (journal != nullptr) {
    CBVLINK_RETURN_NOT_OK(journal->DropCommitted(mark));
  }
  return Status::OK();
}

namespace {

/// Cross-checks a decoded snapshot before any of it is acted on: a
/// snapshot that passed the CRC can still be semantically inconsistent
/// (hand-edited, produced by a buggy writer, or a v1 file with flipped
/// bits predating checksums).
Status ValidateSnapshot(const ServiceSnapshot& snapshot) {
  if (snapshot.attributes.empty()) {
    return Status::InvalidArgument("snapshot has no attributes");
  }
  if (snapshot.expected_qgrams.size() != snapshot.attributes.size()) {
    return Status::InvalidArgument(
        "snapshot expected_qgrams/attribute count mismatch");
  }
  for (double b : snapshot.expected_qgrams) {
    if (!std::isfinite(b) || b <= 0) {
      return Status::InvalidArgument(
          "snapshot expected q-gram counts must be finite and positive");
    }
  }
  if (!std::isfinite(snapshot.delta) || snapshot.delta <= 0 ||
      snapshot.delta >= 1) {
    return Status::InvalidArgument(
        "snapshot delta must be finite and in (0, 1)");
  }
  if (!std::isfinite(snapshot.sizing_max_collisions) ||
      snapshot.sizing_max_collisions <= 0) {
    return Status::InvalidArgument(
        "snapshot sizing_max_collisions must be finite and positive");
  }
  if (!std::isfinite(snapshot.sizing_confidence_ratio) ||
      snapshot.sizing_confidence_ratio <= 0 ||
      snapshot.sizing_confidence_ratio > 1) {
    return Status::InvalidArgument(
        "snapshot sizing_confidence_ratio must be finite and in (0, 1]");
  }
  if (snapshot.overflow_policy > 1) {
    return Status::InvalidArgument("snapshot overflow policy unknown");
  }
  std::unordered_set<RecordId> stored;
  stored.reserve(snapshot.records.size());
  for (const EncodedRecord& record : snapshot.records) {
    if (!stored.insert(record.id).second) {
      return Status::InvalidArgument(
          "snapshot contains duplicate record ids");
    }
  }
  for (RecordId id : snapshot.tombstones) {
    if (stored.contains(id)) {
      return Status::InvalidArgument(
          "snapshot tombstones a record id it also stores");
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<LinkageService>> LinkageService::Restore(
    const ServiceSnapshot& snapshot, const ExecutionOptions& execution) {
  CBVLINK_RETURN_NOT_OK(ValidateSnapshot(snapshot));
  Result<Rule> rule = ParseRule(snapshot.rule_text);
  if (!rule.ok()) return rule.status();

  // Rebuild the schema over owned alphabets (the snapshot stores each
  // alphabet by value).
  std::vector<std::unique_ptr<Alphabet>> alphabets;
  CbvHbConfig config;
  for (const SnapshotAttribute& attr : snapshot.attributes) {
    alphabets.push_back(std::make_unique<Alphabet>(attr.alphabet_symbols));
    config.schema.attributes.push_back(AttributeSpec{
        attr.name, alphabets.back().get(),
        QGramOptions{static_cast<size_t>(attr.qgram_q), attr.qgram_pad}});
  }
  config.rule = std::move(rule).value();
  config.expected_qgrams = snapshot.expected_qgrams;
  config.record_K = static_cast<size_t>(snapshot.record_K);
  config.record_theta = static_cast<size_t>(snapshot.record_theta);
  config.delta = snapshot.delta;
  config.sizing.max_collisions = snapshot.sizing_max_collisions;
  config.sizing.confidence_ratio = snapshot.sizing_confidence_ratio;
  config.seed = snapshot.seed;

  LinkageServiceOptions options;
  options.max_bucket_size = static_cast<size_t>(snapshot.max_bucket_size);
  options.overflow_policy =
      snapshot.overflow_policy == 0 ? OverflowPolicy::kTruncate
                                    : OverflowPolicy::kScanFallback;
  options.execution = execution;

  Result<std::unique_ptr<LinkageService>> service =
      Create(std::move(config), options);
  if (!service.ok()) return service.status();
  service.value()->owned_alphabets_ = std::move(alphabets);

  CBVLINK_RETURN_NOT_OK(service.value()->InstallSnapshot(snapshot));
  return service;
}

Status LinkageService::CheckConfiguration(
    const ServiceSnapshot& snapshot) const {
  const ServiceSnapshot own = ExportConfiguration();
  // Rules compare in the form Restore()'s parse gives them, so a restored
  // service accepts its own snapshots.
  Result<Rule> rule = ParseRule(snapshot.rule_text);
  const auto fields = [](const ServiceSnapshot& s) {
    return std::tie(s.attributes, s.expected_qgrams, s.record_K,
                    s.record_theta, s.delta, s.sizing_max_collisions,
                    s.sizing_confidence_ratio, s.seed, s.max_bucket_size,
                    s.overflow_policy);
  };
  if (!rule.ok() || rule.value().ToString() != own.rule_text ||
      fields(snapshot) != fields(own)) {
    return Status::InvalidArgument(
        "snapshot was saved under another service configuration");
  }
  for (const EncodedRecord& record : snapshot.records) {
    if (record.bits.size() != encoder_.total_bits()) {
      return Status::InvalidArgument(
          "snapshot record width does not match this service's encoder");
    }
  }
  return Status::OK();
}

Status LinkageService::InstallSnapshot(const ServiceSnapshot& snapshot) {
  CBVLINK_RETURN_NOT_OK(ValidateSnapshot(snapshot));
  CBVLINK_RETURN_NOT_OK(CheckConfiguration(snapshot));
  // Records only: the index is rebuilt as Compact() rebuilds the live
  // set, in id order.
  std::vector<EncodedRecord> records = snapshot.records;
  std::sort(records.begin(), records.end(),
            [](const EncodedRecord& x, const EncodedRecord& y) {
              return x.id < y.id;
            });
  // Exclusive against mutators, as in Compact(): a write landing during
  // the build would vanish with the old core.
  std::unique_lock compaction_guard(compaction_mu_);
  std::shared_ptr<Core> fresh = BuildCore(records);
  // Mutation state (version 3+; defaults for older snapshots): the
  // tombstones keep deleted records dead, and the sequence floor lets
  // journal replay skip delete/update frames the snapshot reflects.
  fresh->tombstones.insert(snapshot.tombstones.begin(),
                           snapshot.tombstones.end());
  Publish(std::move(fresh));
  AtomicMaxRelaxed(&sequence_, snapshot.last_sequence);
  inserts_.fetch_add(records.size(), std::memory_order_relaxed);
  return Status::OK();
}

Result<std::unique_ptr<LinkageService>> LinkageService::RestoreFromFile(
    const std::string& path, const ExecutionOptions& execution) {
  Status primary_error;
  {
    Result<ServiceSnapshot> snapshot = ReadServiceSnapshotFromFile(path);
    if (snapshot.ok()) {
      Result<std::unique_ptr<LinkageService>> service =
          Restore(snapshot.value(), execution);
      if (service.ok()) return service;
      primary_error = service.status();
    } else {
      primary_error = snapshot.status();
    }
  }
  // Primary unreadable or invalid: the atomic saver keeps the previous
  // good snapshot hard-linked at path.bak — the newest committed state
  // that can still be valid.  (path.tmp is deliberately not a candidate:
  // rename is the commit point, so tmp contents were never committed.)
  Result<ServiceSnapshot> backup =
      ReadServiceSnapshotFromFile(SnapshotBackupPath(path));
  if (backup.ok()) {
    Result<std::unique_ptr<LinkageService>> service =
        Restore(backup.value(), execution);
    if (service.ok()) {
      service.value()->restore_fallbacks_.fetch_add(
          1, std::memory_order_relaxed);
      telemetry::Registry::Global()
          .GetCounter("service_restore_fallbacks_total")
          ->Add(1);
      return service;
    }
  }
  return primary_error;
}

ServiceMetrics LinkageService::metrics() const {
  ServiceMetrics m;
  {
    const std::shared_ptr<Core> core = PinCore();
    std::shared_lock lock(core->mu);
    m.live_records = core->index.store().live_size();
    for (const BlockingTable& table : core->tables()) {
      m.dropped_entries += table.NumDropped();
    }
  }
  m.inserts = inserts_.load(std::memory_order_relaxed);
  m.deletes = deletes_.load(std::memory_order_relaxed);
  m.updates = updates_.load(std::memory_order_relaxed);
  m.tombstones = tombstone_count_.load(std::memory_order_relaxed);
  m.compactions = compactions_.load(std::memory_order_relaxed);
  m.compaction_reclaimed =
      compaction_reclaimed_.load(std::memory_order_relaxed);
  m.queries = queries_.load(std::memory_order_relaxed);
  m.candidate_occurrences =
      candidate_occurrences_.load(std::memory_order_relaxed);
  m.comparisons = comparisons_.load(std::memory_order_relaxed);
  m.matches = matches_.load(std::memory_order_relaxed);
  m.scan_fallbacks = scan_fallbacks_.load(std::memory_order_relaxed);
  m.restore_fallbacks = restore_fallbacks_.load(std::memory_order_relaxed);
  m.skipped_rows = skipped_rows_.load(std::memory_order_relaxed);
  m.insert_seconds =
      static_cast<double>(insert_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  m.query_seconds =
      static_cast<double>(query_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  const auto wall_span = [](const std::atomic<uint64_t>& first,
                            const std::atomic<uint64_t>& last) {
    const uint64_t start = first.load(std::memory_order_relaxed);
    const uint64_t end = last.load(std::memory_order_relaxed);
    return end > start ? static_cast<double>(end - start) * 1e-9 : 0.0;
  };
  m.insert_wall_seconds =
      wall_span(first_insert_start_ns_, last_insert_end_ns_);
  m.query_wall_seconds = wall_span(first_query_start_ns_, last_query_end_ns_);
  return m;
}

void LinkageService::RecordSkippedRows(uint64_t n) {
  skipped_rows_.fetch_add(n, std::memory_order_relaxed);
  telemetry::Registry::Global()
      .GetCounter("service_skipped_rows_total")
      ->Add(n);
}

void LinkageService::FillTelemetry(telemetry::Registry* registry) const {
  telemetry::Registry& reg =
      registry != nullptr ? *registry : telemetry::Registry::Global();

  // Which Hamming kernel set the process dispatches to (scalar / avx2 /
  // avx512): the named series is set to 1, so a scrape can alert on an
  // unexpected downgrade after a deploy or host move.
  reg.GetGauge(telemetry::LabeledName("hamming_kernel_active", "kernel",
                                      ActiveKernels().name))
      ->Set(1.0);
  const ServiceMetrics m = metrics();
  reg.GetGauge("service_records")->Set(static_cast<double>(m.live_records));
  reg.GetGauge("service_query_wall_seconds")->Set(m.query_wall_seconds);
  reg.GetGauge("service_insert_wall_seconds")->Set(m.insert_wall_seconds);
  reg.GetGauge("service_queries_per_second")->Set(m.QueriesPerSecond());

  // Mutation-lifecycle gauges: live vs dead is the compactor's trigger
  // ratio, surfaced so operators can see reclaim pressure build.
  const double live = static_cast<double>(m.live_records);
  const double dead = static_cast<double>(m.tombstones);
  reg.GetGauge("index_live")->Set(live);
  reg.GetGauge("index_dead")->Set(dead);
  reg.GetGauge("compaction_tombstone_ratio")
      ->Set(dead + live == 0 ? 0.0 : dead / (dead + live));

  // Per-table LSH health in one pass under the shared lock: bucket
  // count, entries, max/mean bucket size, and the cross-table occupancy
  // histogram (bin k counts buckets of size in [2^k, 2^(k+1))).
  constexpr size_t kOccupancySlots = 16;
  std::vector<uint64_t> occupancy(kOccupancySlots, 0);
  uint64_t dropped = 0;
  uint64_t overflowed = 0;
  const std::shared_ptr<Core> core = PinCore();
  std::shared_lock lock(core->mu);
  const std::vector<BlockingTable>& tables = core->tables();
  reg.GetGauge("lsh_tables")->Set(static_cast<double>(tables.size()));
  reg.GetGauge("lsh_k")->Set(
      static_cast<double>(core->index.blocker().table_K(0)));
  for (size_t l = 0; l < tables.size(); ++l) {
    const BlockingTable& table = tables[l];
    dropped += table.NumDropped();
    overflowed += table.NumOverflowed();
    const std::vector<uint64_t> histogram =
        table.OccupancyHistogram(kOccupancySlots);
    for (size_t bin = 0; bin < kOccupancySlots; ++bin) {
      occupancy[bin] += histogram[bin];
    }
    const std::string label = StrFormat("%zu", l);
    reg.GetGauge(telemetry::LabeledName("lsh_table_buckets", "table", label))
        ->Set(static_cast<double>(table.NumBuckets()));
    reg.GetGauge(telemetry::LabeledName("lsh_table_entries", "table", label))
        ->Set(static_cast<double>(table.NumEntries()));
    reg.GetGauge(
           telemetry::LabeledName("lsh_table_max_bucket", "table", label))
        ->Set(static_cast<double>(table.MaxBucketSize()));
    reg.GetGauge(
           telemetry::LabeledName("lsh_table_mean_bucket", "table", label))
        ->Set(table.MeanBucketSize());
  }
  reg.GetGauge("lsh_dropped_entries")->Set(static_cast<double>(dropped));
  reg.GetGauge("lsh_overflowed_buckets")
      ->Set(static_cast<double>(overflowed));
  // All bins are always exported so a scrape sees the full distribution
  // shape, including its zeros.
  for (size_t bin = 0; bin < kOccupancySlots; ++bin) {
    reg.GetGauge(telemetry::LabeledName("lsh_bucket_occupancy", "size_log2",
                                        StrFormat("%zu", bin)))
        ->Set(static_cast<double>(occupancy[bin]));
  }
}

}  // namespace cbvlink
