#include "src/service/linkage_service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <unordered_set>

#include "src/common/failpoint.h"
#include "src/common/hamming_kernels.h"
#include "src/common/str.h"
#include "src/lsh/params.h"
#include "src/rules/rule_parser.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace cbvlink {

namespace {

size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

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

}  // namespace

ConcurrentVectorStore::ConcurrentVectorStore(size_t num_shards) {
  const size_t n = RoundUpPowerOfTwo(std::max<size_t>(num_shards, 1));
  mask_ = n - 1;
  shards_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void ConcurrentVectorStore::Add(const EncodedRecord& record) {
  CBVLINK_FAILPOINT_DELAY("store.add");
  Shard& shard = *shards_[ShardOf(record.id)];
  std::unique_lock lock(shard.mu);
  shard.vectors.insert_or_assign(record.id, record.bits);
}

bool ConcurrentVectorStore::Remove(RecordId id) {
  CBVLINK_FAILPOINT_DELAY("store.add");
  Shard& shard = *shards_[ShardOf(id)];
  std::unique_lock lock(shard.mu);
  return shard.vectors.erase(id) != 0;
}

bool ConcurrentVectorStore::Find(RecordId id, BitVector* out) const {
  CBVLINK_FAILPOINT_DELAY("store.find");
  const Shard& shard = *shards_[ShardOf(id)];
  std::shared_lock lock(shard.mu);
  const auto it = shard.vectors.find(id);
  if (it == shard.vectors.end()) return false;
  *out = it->second;
  return true;
}

bool ConcurrentVectorStore::CopyWords(RecordId id, size_t num_words,
                                      uint64_t* dst) const {
  CBVLINK_FAILPOINT_DELAY("store.find");
  const Shard& shard = *shards_[ShardOf(id)];
  std::shared_lock lock(shard.mu);
  const auto it = shard.vectors.find(id);
  if (it == shard.vectors.end()) return false;
  const std::vector<uint64_t>& words = it->second.words();
  if (words.size() != num_words) return false;
  std::copy(words.begin(), words.end(), dst);
  return true;
}

bool ConcurrentVectorStore::Contains(RecordId id) const {
  const Shard& shard = *shards_[ShardOf(id)];
  std::shared_lock lock(shard.mu);
  return shard.vectors.contains(id);
}

void ConcurrentVectorStore::ForEach(
    const std::function<void(RecordId, const BitVector&)>& fn) const {
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    for (const auto& [id, bits] : shard->vectors) fn(id, bits);
  }
}

size_t ConcurrentVectorStore::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    total += shard->vectors.size();
  }
  return total;
}

std::vector<EncodedRecord> ConcurrentVectorStore::Export() const {
  std::vector<EncodedRecord> out;
  out.reserve(size());
  ForEach([&out](RecordId id, const BitVector& bits) {
    out.push_back(EncodedRecord{id, bits});
  });
  std::sort(out.begin(), out.end(),
            [](const EncodedRecord& a, const EncodedRecord& b) {
              return a.id < b.id;
            });
  return out;
}

LinkageService::LinkageService(CbvHbConfig config,
                               LinkageServiceOptions options)
    : config_(std::move(config)),
      options_(options),
      store_(options.num_shards),
      epoch_(std::chrono::steady_clock::now()) {
  // Normalize eagerly so options(), snapshots, and the sharded
  // structures all agree on the effective shard count — Restore()
  // validates the persisted value as a power of two.
  options_.num_shards = RoundUpPowerOfTwo(std::max<size_t>(options.num_shards, 1));
}

Result<std::unique_ptr<LinkageService>> LinkageService::Create(
    CbvHbConfig config, LinkageServiceOptions options,
    const std::vector<Record>& calibration_sample) {
  if (config.attribute_level_blocking) {
    return Status::InvalidArgument(
        "LinkageService shards record-level HB blocking; "
        "attribute-level structures are not supported");
  }
  // Reuse the batch linker's validation rules.
  {
    CbvHbConfig copy = config;
    Result<CbvHbLinker> check = CbvHbLinker::Create(std::move(copy));
    if (!check.ok()) return check.status();
  }
  if (config.expected_qgrams.empty()) {
    if (calibration_sample.empty()) {
      return Status::InvalidArgument(
          "linkage service needs expected_qgrams or a calibration sample");
    }
    config.expected_qgrams =
        EstimateExpectedQGrams(config.schema, calibration_sample);
  }
  std::unique_ptr<LinkageService> service(
      new LinkageService(std::move(config), options));
  Status init = service->Init();
  if (!init.ok()) return init;
  return service;
}

Status LinkageService::Init() {
  // The RNG consumption order (encoder, then family) must stay fixed:
  // Restore() depends on the seed reproducing both exactly.
  Rng rng(config_.seed);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      config_.schema, config_.expected_qgrams, rng, config_.sizing);
  if (!encoder.ok()) return encoder.status();
  encoder_.emplace(std::move(encoder).value());

  // Distinct sampling caps K at the record width; a larger configured K
  // was pure duplicate draws before, so clamp (deterministically — the
  // clamp depends only on the persisted config, keeping Restore's RNG
  // stream reproducible) instead of rejecting old configs.
  const size_t record_K =
      std::min(config_.record_K, encoder_->total_bits());
  if (record_K != config_.record_K) {
    std::fprintf(stderr,
                 "cbvlink: record_K = %zu exceeds the %zu-bit record; "
                 "clamping to %zu (distinct bit positions)\n",
                 config_.record_K, encoder_->total_bits(), record_K);
  }
  Result<double> p =
      HammingBaseProbability(config_.record_theta, encoder_->total_bits());
  if (!p.ok()) return p.status();
  Result<size_t> L = OptimalGroups(p.value(), record_K, config_.delta);
  if (!L.ok()) return L.status();
  Result<HammingLshFamily> family = HammingLshFamily::CreateFull(
      record_K, L.value(), encoder_->total_bits(), rng);
  if (!family.ok()) return family.status();
  // Keep a copy of the family: Compact() rebuilds a successor index with
  // the identical blocking keys.
  family_.emplace(family.value());

  ShardedIndexOptions index_options;
  index_options.num_shards = options_.num_shards;
  index_options.max_bucket_size = options_.max_bucket_size;
  Result<ShardedHammingIndex> index =
      ShardedHammingIndex::Create(std::move(family).value(), index_options);
  if (!index.ok()) return index.status();
  index_ = std::make_shared<ShardedHammingIndex>(std::move(index).value());

  classifier_ = MakeRuleClassifier(config_.rule, encoder_->layout());
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
  return Status::OK();
}

LinkageService::~LinkageService() { StopBackgroundCompaction(); }

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

void LinkageService::InsertEncoded(const EncodedRecord& record) {
  // Shared against the compactor: no insert may land between its
  // survivor export and the epoch swap, or the record would vanish from
  // the published index.
  std::shared_lock compaction_guard(compaction_mu_);
  // Store before index: a concurrent Match that sees the id in a bucket
  // must be able to retrieve the vector.
  store_.Add(record);
  PinIndex()->Insert(record);
  // An insert of a tombstoned id resurrects it (same outcome live and in
  // replay order).  Gated on the counter so the steady insert path never
  // touches the tombstone lock.
  if (tombstone_count_.load(std::memory_order_relaxed) != 0) {
    ClearTombstone(record.id);
  }
}

void LinkageService::ClearTombstone(RecordId id) {
  std::unique_lock lock(tombstones_mu_);
  if (tombstones_.erase(id) != 0) {
    tombstone_count_.store(tombstones_.size(), std::memory_order_relaxed);
  }
}

Status LinkageService::InsertUnjournaled(const Record& record) {
  CBVLINK_FAILPOINT("service.insert");
  const uint64_t start = NowNanos();
  telemetry::TraceSpan encode_span("encode");
  Result<EncodedRecord> encoded = encoder_->Encode(record);
  encode_span.End();
  if (!encoded.ok()) return encoded.status();
  telemetry::TraceSpan insert_span("insert");
  InsertEncoded(encoded.value());
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

Status LinkageService::DeleteUnjournaled(RecordId id, uint64_t* sequence) {
  CBVLINK_FAILPOINT("service.delete");
  std::shared_lock compaction_guard(compaction_mu_);
  // Remove + tombstone under the tombstone lock, so a racing Update of
  // the same id serializes against the delete (it would otherwise leave
  // the id live *and* tombstoned).
  std::unique_lock lock(tombstones_mu_);
  if (!store_.Remove(id)) {
    return Status::NotFound(
        StrFormat("record %llu is not live", static_cast<unsigned long long>(id)));
  }
  tombstones_.insert(id);
  tombstone_count_.store(tombstones_.size(), std::memory_order_relaxed);
  // Stamp the acknowledgement sequence AFTER the state change: a
  // snapshot reads the floor before exporting, so floor >= seq implies
  // the removal is already in the export.
  *sequence = sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  deletes_.fetch_add(1, std::memory_order_relaxed);
  t_deletes_->Add(1);
  return Status::OK();
}

Status LinkageService::UpdateUnjournaled(const Record& record,
                                         uint64_t* sequence) {
  CBVLINK_FAILPOINT("service.update");
  telemetry::TraceSpan encode_span("encode");
  Result<EncodedRecord> encoded = encoder_->Encode(record);
  encode_span.End();
  if (!encoded.ok()) return encoded.status();
  std::shared_lock compaction_guard(compaction_mu_);
  std::unique_lock lock(tombstones_mu_);
  if (!store_.Contains(record.id)) {
    return Status::NotFound(StrFormat(
        "record %llu is not live", static_cast<unsigned long long>(record.id)));
  }
  // Overwrite the vector, then index the new blocking keys into the
  // current epoch.  Keys from the previous bits stay until compaction;
  // they only ever produce candidates that classify on the new bits.
  store_.Add(encoded.value());
  PinIndex()->Insert(encoded.value());
  *sequence = sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  updates_.fetch_add(1, std::memory_order_relaxed);
  t_updates_->Add(1);
  return Status::OK();
}

Status LinkageService::Delete(RecordId id) {
  uint64_t sequence = 0;
  CBVLINK_RETURN_NOT_OK(DeleteUnjournaled(id, &sequence));
  return JournalAppend(MutationOp::Delete(id, sequence));
}

Status LinkageService::Update(const Record& record) {
  uint64_t sequence = 0;
  CBVLINK_RETURN_NOT_OK(UpdateUnjournaled(record, &sequence));
  return JournalAppend(MutationOp::Update(record, sequence));
}

Status LinkageService::DeleteBatch(const std::vector<RecordId>& ids) {
  std::shared_ptr<Journal> journal = this->journal();
  for (RecordId id : ids) {
    uint64_t sequence = 0;
    CBVLINK_RETURN_NOT_OK(DeleteUnjournaled(id, &sequence));
    if (journal != nullptr) {
      CBVLINK_RETURN_NOT_OK(journal->Append(MutationOp::Delete(id, sequence)));
    }
  }
  if (journal != nullptr && journal->options().fsync_every != 0) {
    CBVLINK_RETURN_NOT_OK(journal->Sync());
  }
  return Status::OK();
}

Status LinkageService::UpdateBatch(const std::vector<Record>& records) {
  std::shared_ptr<Journal> journal = this->journal();
  for (const Record& record : records) {
    uint64_t sequence = 0;
    CBVLINK_RETURN_NOT_OK(UpdateUnjournaled(record, &sequence));
    if (journal != nullptr) {
      CBVLINK_RETURN_NOT_OK(
          journal->Append(MutationOp::Update(record, sequence)));
    }
  }
  if (journal != nullptr && journal->options().fsync_every != 0) {
    CBVLINK_RETURN_NOT_OK(journal->Sync());
  }
  return Status::OK();
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
      std::shared_lock compaction_guard(compaction_mu_);
      std::unique_lock lock(tombstones_mu_);
      if (!store_.Remove(op.record.id)) return false;  // idempotent
      tombstones_.insert(op.record.id);
      tombstone_count_.store(tombstones_.size(), std::memory_order_relaxed);
      deletes_.fetch_add(1, std::memory_order_relaxed);
      t_deletes_->Add(1);
      return true;
    }
    case MutationKind::kUpdate: {
      if (op.sequence != 0 &&
          op.sequence <= sequence_.load(std::memory_order_relaxed)) {
        return false;
      }
      AtomicMaxRelaxed(&sequence_, op.sequence);
      Result<EncodedRecord> encoded = encoder_->Encode(op.record);
      if (!encoded.ok()) return encoded.status();
      // Upsert: in replay order the record existed when the update was
      // acknowledged, but a snapshot/journal overlap can present the
      // update before the insert frame is deduped — applying it as an
      // insert converges to the same state.
      std::shared_lock compaction_guard(compaction_mu_);
      std::unique_lock lock(tombstones_mu_);
      store_.Add(encoded.value());
      PinIndex()->Insert(encoded.value());
      if (tombstones_.erase(op.record.id) != 0) {
        tombstone_count_.store(tombstones_.size(), std::memory_order_relaxed);
      }
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
  return store_.Contains(id);
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

Result<uint64_t> LinkageService::MergeSnapshotRecords(
    const ServiceSnapshot& snapshot) {
  const size_t expected_bits = encoder_->total_bits();
  for (const EncodedRecord& record : snapshot.records) {
    if (record.bits.size() != expected_bits) {
      return Status::InvalidArgument(
          "snapshot record width does not match this service's encoder");
    }
  }
  uint64_t applied = 0;
  std::unordered_set<RecordId> snapshot_live;
  snapshot_live.reserve(snapshot.records.size());
  for (const EncodedRecord& record : snapshot.records) {
    snapshot_live.insert(record.id);
    if (Contains(record.id)) continue;
    InsertEncoded(record);
    inserts_.fetch_add(1, std::memory_order_relaxed);
    t_inserts_->Add(1);
    ++applied;
  }
  // Reconcile deletions.  The snapshot is newer than every local frame
  // (it is fetched precisely because the local cursor fell behind), so
  // its verdict on each id is authoritative: tombstoned there -> dead
  // here; live neither there nor in its tombstones -> the primary
  // deleted it and compaction already cleared the tombstone -> dead here
  // too.
  const std::unordered_set<RecordId> snapshot_tombstones(
      snapshot.tombstones.begin(), snapshot.tombstones.end());
  std::vector<RecordId> to_delete(snapshot.tombstones.begin(),
                                  snapshot.tombstones.end());
  store_.ForEach([&](RecordId id, const BitVector&) {
    if (!snapshot_live.contains(id) && !snapshot_tombstones.contains(id)) {
      to_delete.push_back(id);
    }
  });
  AtomicMaxRelaxed(&sequence_, snapshot.last_sequence);
  for (RecordId id : to_delete) {
    std::shared_lock compaction_guard(compaction_mu_);
    std::unique_lock lock(tombstones_mu_);
    if (!store_.Remove(id)) continue;
    tombstones_.insert(id);
    tombstone_count_.store(tombstones_.size(), std::memory_order_relaxed);
    deletes_.fetch_add(1, std::memory_order_relaxed);
    t_deletes_->Add(1);
    ++applied;
  }
  return applied;
}

Status LinkageService::Compact() {
  // Exclusive against mutators (they hold compaction_mu_ shared): from
  // here to the epoch swap the live set is frozen, so the rebuilt index
  // covers exactly the survivors.  Match never takes this lock — readers
  // keep serving the old epoch throughout; this exclusive section is the
  // "compaction pause" and it stalls writes only.
  const uint64_t pause_start = NowNanos();
  std::unique_lock compaction_guard(compaction_mu_);
  const std::vector<EncodedRecord> survivors = store_.Export();
  ShardedIndexOptions index_options;
  index_options.num_shards = options_.num_shards;
  index_options.max_bucket_size = options_.max_bucket_size;
  Result<ShardedHammingIndex> rebuilt =
      ShardedHammingIndex::Create(*family_, index_options);
  if (!rebuilt.ok()) return rebuilt.status();
  auto fresh =
      std::make_shared<ShardedHammingIndex>(std::move(rebuilt).value());
  // Deterministic re-block: BulkInsert over id-sorted survivors produces
  // the same buckets a fresh build of the live set would.
  fresh->BulkInsert(survivors, pool_);
  uint64_t reclaimed = 0;
  {
    // Publish the new epoch.  In-flight Matches pinned the old
    // shared_ptr and drain on it; the old index is retired when the last
    // pin drops.
    std::unique_lock swap_lock(index_mu_);
    const size_t before = index_->NumEntries();
    const size_t after = fresh->NumEntries();
    reclaimed = before > after ? before - after : 0;
    index_ = std::move(fresh);
  }
  {
    std::unique_lock lock(tombstones_mu_);
    tombstones_.clear();
    tombstone_count_.store(0, std::memory_order_relaxed);
  }
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
    const size_t live = store_.size();
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
  std::vector<RecordId> candidates;
  bool saw_overflow = false;
  telemetry::TraceSpan candidates_span("candidates");
  // Pin the index epoch for the whole probe: the compactor may publish a
  // successor mid-call, but this Match keeps reading the epoch it
  // started on (the shared_ptr refcount retires the old index after the
  // last in-flight reader drains).
  const std::shared_ptr<ShardedHammingIndex> index = PinIndex();
  index->Collect(b.bits, &candidates, &saw_overflow);
  candidate_occurrences_.fetch_add(candidates.size(),
                                   std::memory_order_relaxed);
  t_candidates_->Add(candidates.size());
  candidates_span.Annotate("occurrences", candidates.size());
  // Algorithm 2's unique collection C, as sort+unique over the gathered
  // occurrences (cheaper than a hash set at bucket-sized cardinalities).
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  candidates_span.Annotate("candidates", candidates.size());
  candidates_span.Annotate("overflow", saw_overflow ? 1 : 0);
  candidates_span.End();

  telemetry::TraceSpan compare_span("compare");
  uint64_t compared = 0;
  uint64_t matched = 0;
  // Batched classify (DESIGN.md §14): gather the candidates' words into
  // a flat buffer (one CopyWords per id under its shard lock), then
  // classify the contiguous rows with one ClassifyBatch call.  Verdicts
  // come back in gather order, so pairs are emitted in id order.
  const size_t num_words = b.bits.words().size();
  std::vector<uint64_t> gathered(candidates.size() * num_words);
  std::vector<RecordId> present;
  present.reserve(candidates.size());
  for (RecordId id : candidates) {
    if (!store_.CopyWords(id, num_words,
                          gathered.data() + present.size() * num_words)) {
      continue;  // indexed but not yet stored
    }
    present.push_back(id);
  }
  const size_t n = present.size();
  compared += n;
  if (n != 0) {
    std::vector<uint8_t> verdicts(n);
    classifier_.ClassifyBatch(b.bits.words().data(), gathered.data(),
                              num_words, /*dense=*/nullptr, n,
                              verdicts.data());
    for (size_t i = 0; i < n; ++i) {
      if (verdicts[i] != 0) {
        ++matched;
        out->push_back(IdPair{present[i], b.id});
      }
    }
  }

  if (saw_overflow &&
      options_.overflow_policy == OverflowPolicy::kScanFallback) {
    // A probed bucket dropped entries: preserve recall by scanning the
    // store, skipping ids the blocked path already compared.
    scan_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    t_scan_fallbacks_->Add(1);
    store_.ForEach([&](RecordId id, const BitVector& bits) {
      if (std::binary_search(candidates.begin(), candidates.end(), id)) {
        return;
      }
      ++compared;
      if (classifier_(bits, b.bits)) {
        ++matched;
        out->push_back(IdPair{id, b.id});
      }
    });
  }

  compare_span.Annotate("compared", compared);
  compare_span.Annotate("matched", matched);
  compare_span.End();
  comparisons_.fetch_add(compared, std::memory_order_relaxed);
  matches_.fetch_add(matched, std::memory_order_relaxed);
  // Match-funnel telemetry: candidates -> comparisons -> matches.  The
  // ratios are the paper's RR/PQ analogues at serving time (a drifting
  // comparisons/candidates ratio means the Eq. 2 tables stopped
  // discriminating).
  t_comparisons_->Add(compared);
  t_matches_->Add(matched);
}

Status LinkageService::Match(const Record& record,
                             std::vector<IdPair>* out) const {
  CBVLINK_FAILPOINT("service.match");
  const uint64_t start = NowNanos();
  telemetry::TraceSpan encode_span("encode");
  Result<EncodedRecord> encoded = encoder_->Encode(record);
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
  Result<EncodedRecord> encoded = encoder_->Encode(record);
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
  InsertEncoded(encoded.value());
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
  std::mutex mu;
  Status first_error;
  telemetry::ScopedTimer batch_timer(t_batch_latency_);
  // Carry the caller's trace onto the pool threads: each chunk records
  // its own span into the request's collector (slot claiming makes the
  // concurrent writes safe; ParallelFor's completion orders the reads).
  const telemetry::TraceContext parent_ctx = telemetry::CurrentTraceContext();
  pool_->ParallelFor(records.size(),
                     [&](size_t /*chunk*/, size_t begin, size_t end) {
                       telemetry::ScopedTraceContext scope(
                           parent_ctx.collector, parent_ctx.parent_span_id);
                       telemetry::TraceSpan chunk_span("insert_chunk");
                       chunk_span.Annotate("begin", begin);
                       chunk_span.Annotate("count", end - begin);
                       for (size_t i = begin; i < end; ++i) {
                         Status st = InsertUnjournaled(records[i]);
                         if (!st.ok()) {
                           std::scoped_lock lock(mu);
                           if (first_error.ok()) first_error = st;
                           return;
                         }
                       }
                     });
  if (!first_error.ok()) return first_error;
  // Journal in record order after the parallel apply, so the journal's
  // frame order is deterministic for a given batch; sync once at the
  // batch boundary so the whole batch is durable before the caller's
  // acknowledgement even under a relaxed per-append fsync policy.
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
  std::mutex mu;
  Status first_error;
  telemetry::ScopedTimer batch_timer(t_batch_latency_);
  const telemetry::TraceContext parent_ctx = telemetry::CurrentTraceContext();
  pool_->ParallelFor(records.size(),
                     [&](size_t /*chunk*/, size_t begin, size_t end) {
                       telemetry::ScopedTraceContext scope(
                           parent_ctx.collector, parent_ctx.parent_span_id);
                       telemetry::TraceSpan chunk_span("match_chunk");
                       chunk_span.Annotate("begin", begin);
                       chunk_span.Annotate("count", end - begin);
                       std::vector<IdPair> local;
                       for (size_t i = begin; i < end; ++i) {
                         Status st = Match(records[i], &local);
                         if (!st.ok()) {
                           std::scoped_lock lock(mu);
                           if (first_error.ok()) first_error = st;
                           return;
                         }
                       }
                       std::scoped_lock lock(mu);
                       out->insert(out->end(), local.begin(), local.end());
                     });
  return first_error;
}

ServiceSnapshot LinkageService::ExportSnapshot() const {
  ServiceSnapshot snapshot;
  // Shared against the compactor only: an epoch swap or tombstone sweep
  // mid-export would tear the buckets/records/tombstones triple apart.
  // Mutators also hold this lock shared, so they are unaffected.
  std::shared_lock compaction_guard(compaction_mu_);
  // Read the sequence floor FIRST: any delete/update stamped at or below
  // it completed before this point (the sequence is assigned after the
  // state change), so its effect is in the export below and replay may
  // skip the frame.  Later-stamped mutations may or may not be captured;
  // their frames stay above the floor and replay re-applies them.
  snapshot.last_sequence = sequence_.load(std::memory_order_relaxed);
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
  snapshot.num_shards = options_.num_shards;
  snapshot.max_bucket_size = options_.max_bucket_size;
  snapshot.overflow_policy = static_cast<uint32_t>(options_.overflow_policy);
  // Buckets before records: Insert() stores the vector before indexing
  // it, so every id visible in a bucket here is already in the store —
  // the later record export can only be a superset, and Restore()'s
  // bucket-ids-are-stored invariant holds even when inserts race the
  // snapshot.
  snapshot.buckets = PinIndex()->ExportBuckets();
  snapshot.records = store_.Export();
  {
    std::shared_lock lock(tombstones_mu_);
    snapshot.tombstones.assign(tombstones_.begin(), tombstones_.end());
  }
  // A racing resurrect (insert of a tombstoned id) between the record
  // export and the tombstone read can list an id in both sets; keep the
  // record (the insert frame is journaled, so replay converges) and drop
  // the tombstone so the snapshot stays self-consistent.
  {
    std::unordered_set<RecordId> live;
    live.reserve(snapshot.records.size());
    for (const EncodedRecord& record : snapshot.records) live.insert(record.id);
    std::erase_if(snapshot.tombstones,
                  [&](RecordId id) { return live.contains(id); });
  }
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
  if (snapshot.num_shards == 0 ||
      (snapshot.num_shards & (snapshot.num_shards - 1)) != 0) {
    return Status::InvalidArgument(
        "snapshot num_shards must be a nonzero power of two");
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
  std::unordered_set<RecordId> tombstoned;
  tombstoned.reserve(snapshot.tombstones.size());
  for (RecordId id : snapshot.tombstones) {
    if (stored.contains(id)) {
      return Status::InvalidArgument(
          "snapshot tombstones a record id it also stores");
    }
    tombstoned.insert(id);
  }
  for (const IndexBucketSnapshot& bucket : snapshot.buckets) {
    for (RecordId id : bucket.ids) {
      // A tombstoned id may linger in buckets until compaction; anything
      // else unbacked is corruption.
      if (!stored.contains(id) && !tombstoned.contains(id)) {
        return Status::InvalidArgument(
            "snapshot bucket references a record id that is neither "
            "stored nor tombstoned");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<LinkageService>> LinkageService::Restore(
    const ServiceSnapshot& snapshot) {
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
  options.num_shards = static_cast<size_t>(snapshot.num_shards);
  options.max_bucket_size = static_cast<size_t>(snapshot.max_bucket_size);
  options.overflow_policy =
      snapshot.overflow_policy == 0 ? OverflowPolicy::kTruncate
                                    : OverflowPolicy::kScanFallback;

  Result<std::unique_ptr<LinkageService>> service =
      Create(std::move(config), options);
  if (!service.ok()) return service.status();
  service.value()->owned_alphabets_ = std::move(alphabets);

  const size_t expected_bits = service.value()->encoder_->total_bits();
  for (const EncodedRecord& record : snapshot.records) {
    if (record.bits.size() != expected_bits) {
      return Status::InvalidArgument(
          "snapshot record width does not match the restored encoder");
    }
  }
  // Widths validated; load the store over the service pool (Add is
  // thread-safe and ids are unique, so the result is order-independent)
  // and the buckets through the index's shard-parallel restore.
  ThreadPool* pool = service.value()->pool_;
  pool->ParallelFor(snapshot.records.size(),
                    [&](size_t, size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) {
                        service.value()->store_.Add(snapshot.records[i]);
                      }
                    });
  CBVLINK_RETURN_NOT_OK(
      service.value()->index_->BulkRestore(snapshot.buckets, pool));
  service.value()->inserts_.store(snapshot.records.size(),
                                  std::memory_order_relaxed);
  // Mutation state (version 3+; defaults for older snapshots): restored
  // tombstones keep deleted records dead across the restart, and the
  // sequence floor lets journal replay skip delete/update frames the
  // snapshot already reflects.
  service.value()->tombstones_.insert(snapshot.tombstones.begin(),
                                      snapshot.tombstones.end());
  service.value()->tombstone_count_.store(
      service.value()->tombstones_.size(), std::memory_order_relaxed);
  service.value()->sequence_.store(snapshot.last_sequence,
                                   std::memory_order_relaxed);
  return service;
}

Result<std::unique_ptr<LinkageService>> LinkageService::RestoreFromFile(
    const std::string& path) {
  Status primary_error;
  {
    Result<ServiceSnapshot> snapshot = ReadServiceSnapshotFromFile(path);
    if (snapshot.ok()) {
      Result<std::unique_ptr<LinkageService>> service =
          Restore(snapshot.value());
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
        Restore(backup.value());
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
  m.inserts = inserts_.load(std::memory_order_relaxed);
  m.deletes = deletes_.load(std::memory_order_relaxed);
  m.updates = updates_.load(std::memory_order_relaxed);
  m.live_records = store_.size();
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
  m.dropped_entries = PinIndex()->dropped_entries();
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
  reg.GetGauge("service_records")->Set(static_cast<double>(store_.size()));
  reg.GetGauge("service_shards")
      ->Set(static_cast<double>(options_.num_shards));
  const ServiceMetrics m = metrics();
  reg.GetGauge("service_query_wall_seconds")->Set(m.query_wall_seconds);
  reg.GetGauge("service_insert_wall_seconds")->Set(m.insert_wall_seconds);
  reg.GetGauge("service_queries_per_second")->Set(m.QueriesPerSecond());

  // Mutation-lifecycle gauges: live vs dead is the compactor's trigger
  // ratio, surfaced so operators can see reclaim pressure build.
  reg.GetGauge("index_live")->Set(static_cast<double>(store_.size()));
  reg.GetGauge("index_dead")->Set(static_cast<double>(
      tombstone_count_.load(std::memory_order_relaxed)));
  reg.GetGauge("compaction_tombstone_ratio")
      ->Set([&]() -> double {
        const double dead = static_cast<double>(
            tombstone_count_.load(std::memory_order_relaxed));
        const double live = static_cast<double>(store_.size());
        return dead + live == 0 ? 0.0 : dead / (dead + live);
      }());

  const std::shared_ptr<ShardedHammingIndex> index = PinIndex();
  const IndexHealth health = index->CollectHealth();
  reg.GetGauge("lsh_tables")->Set(static_cast<double>(index->L()));
  reg.GetGauge("lsh_k")->Set(static_cast<double>(index->K()));
  reg.GetGauge("lsh_dropped_entries")
      ->Set(static_cast<double>(health.dropped_entries));
  reg.GetGauge("lsh_overflowed_buckets")
      ->Set(static_cast<double>(health.overflowed_buckets));
  for (size_t l = 0; l < health.tables.size(); ++l) {
    const TableHealth& table = health.tables[l];
    const std::string label = StrFormat("%zu", l);
    reg.GetGauge(telemetry::LabeledName("lsh_table_buckets", "table", label))
        ->Set(static_cast<double>(table.buckets));
    reg.GetGauge(telemetry::LabeledName("lsh_table_entries", "table", label))
        ->Set(static_cast<double>(table.entries));
    reg.GetGauge(
           telemetry::LabeledName("lsh_table_max_bucket", "table", label))
        ->Set(static_cast<double>(table.max_bucket));
    reg.GetGauge(
           telemetry::LabeledName("lsh_table_mean_bucket", "table", label))
        ->Set(table.mean_bucket);
  }
  // Cross-table occupancy: bin k counts buckets of size in
  // [2^k, 2^(k+1)).  All bins are always exported so a scrape sees the
  // full distribution shape, including its zeros.
  for (size_t bin = 0; bin < IndexHealth::kOccupancySlots; ++bin) {
    reg.GetGauge(telemetry::LabeledName("lsh_bucket_occupancy", "size_log2",
                                        StrFormat("%zu", bin)))
        ->Set(static_cast<double>(health.occupancy[bin]));
  }
}

}  // namespace cbvlink
