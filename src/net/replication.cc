#include "src/net/replication.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "src/io/serialization.h"
#include "src/service/linkage_service.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/telemetry/trace_sink.h"

namespace cbvlink {
namespace net {

namespace {

telemetry::Gauge* LagGauge() {
  static telemetry::Gauge* g =
      telemetry::Registry::Global().GetGauge("replication_lag_bytes");
  return g;
}
telemetry::Counter* AppliedCounter() {
  static telemetry::Counter* c =
      telemetry::Registry::Global().GetCounter("replication_applied_total");
  return c;
}
telemetry::Counter* SyncsCounter() {
  static telemetry::Counter* c =
      telemetry::Registry::Global().GetCounter("replication_syncs_total");
  return c;
}
telemetry::Gauge* CircuitGauge() {
  static telemetry::Gauge* g =
      telemetry::Registry::Global().GetGauge("replication_circuit_state");
  return g;
}

}  // namespace

Result<std::unique_ptr<Replica>> Replica::Start(ReplicaOptions options) {
  auto replica = std::unique_ptr<Replica>(new Replica());
  replica->options_ = std::move(options);
  // Mix the instance address into the jitter seed so a fleet of
  // followers spreads its retries even when nobody tuned the seed.
  BackoffOptions backoff = replica->options_.failure_backoff;
  backoff.seed ^= reinterpret_cast<uintptr_t>(replica.get());
  replica->backoff_ = Backoff(backoff);
  // The initial sync runs synchronously so a returned Replica already
  // holds a serviceable copy of the primary.
  CBVLINK_RETURN_NOT_OK(replica->SyncFromSnapshot());
  replica->follow_thread_ = std::thread([r = replica.get()] { r->FollowLoop(); });
  return replica;
}

Replica::~Replica() { Stop(); }

void Replica::Stop() {
  stopping_.store(true, std::memory_order_release);
  // Empty critical section: pairs with SleepFor so the notify cannot
  // land between its predicate check and its wait.
  { std::lock_guard<std::mutex> lock(mu_); }
  wake_cv_.notify_all();
  if (follow_thread_.joinable()) follow_thread_.join();
}

bool Replica::SleepFor(int64_t ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return !wake_cv_.wait_for(lock, std::chrono::milliseconds(ms), [this] {
    return stopping_.load(std::memory_order_acquire);
  });
}

void Replica::NoteSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  progress_.consecutive_failures = 0;
  progress_.last_error.clear();
  if (progress_.circuit != CircuitState::kClosed) {
    progress_.circuit = CircuitState::kClosed;
    CircuitGauge()->Set(0.0);
  }
}

void Replica::NoteFailure(const Status& error) {
  std::lock_guard<std::mutex> lock(mu_);
  progress_.last_error = error.ToString();
  ++progress_.consecutive_failures;
  if (progress_.circuit == CircuitState::kHalfOpen ||
      (progress_.circuit == CircuitState::kClosed &&
       progress_.consecutive_failures >=
           static_cast<uint64_t>(options_.circuit_open_after_failures))) {
    // A failed half-open probe re-opens; enough closed-state failures
    // open for the first time.
    progress_.circuit = CircuitState::kOpen;
  }
  CircuitGauge()->Set(static_cast<double>(progress_.circuit));
}

void Replica::MaybeHalfOpen() {
  std::lock_guard<std::mutex> lock(mu_);
  if (progress_.circuit == CircuitState::kOpen) {
    progress_.circuit = CircuitState::kHalfOpen;
    CircuitGauge()->Set(static_cast<double>(progress_.circuit));
  }
}

LinkageService* Replica::service() const { return service_.get(); }

ReplicaProgress Replica::progress() const {
  std::lock_guard<std::mutex> lock(mu_);
  return progress_;
}

std::unique_ptr<LinkageService> Replica::Promote() {
  Stop();
  return std::move(service_);
}

Status Replica::SyncFromSnapshot() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    progress_.syncing = true;
  }
  const Status st = SyncFromSnapshotImpl();
  {
    // Cleared on every exit path: a failed sync must not report
    // `syncing` while the follow loop is sleeping before its retry.
    std::lock_guard<std::mutex> lock(mu_);
    progress_.syncing = false;
  }
  return st;
}

Status Replica::SyncFromSnapshotImpl() {
  auto client = NetClient::Connect(
      options_.primary_host, options_.primary_port,
      NetClientOptions{options_.connect_timeout_ms, options_.io_timeout_ms});
  CBVLINK_RETURN_NOT_OK(client.status());
  client_ = std::move(client).value();

  telemetry::TraceSpan sync_span("replica_sync");
  std::string bytes;
  CBVLINK_RETURN_NOT_OK(client_->FetchSnapshot(&bytes));
  sync_span.Annotate("snapshot_bytes", bytes.size());
  std::istringstream in(bytes);
  auto snapshot = ReadServiceSnapshot(in);
  CBVLINK_RETURN_NOT_OK(snapshot.status());
  uint64_t merged_records = 0;
  if (service_ == nullptr) {
    // Initial sync, before the follow thread or any serving NetServer
    // exists: building the service from scratch is safe here and only
    // here.
    auto service =
        LinkageService::Restore(snapshot.value(), options_.execution);
    CBVLINK_RETURN_NOT_OK(service.status());
    service_ = std::move(service).value();
  } else {
    // Re-sync (journal rotated under the cursor, or the tail went
    // corrupt).  service_ must stay pointer-stable — a read-only
    // NetServer and Promote() hold it — so reconcile the snapshot into
    // the live service instead of swapping it: absent records are
    // inserted, snapshot tombstones (and local records the snapshot no
    // longer mentions at all — deleted then compacted away on the
    // primary) are deleted, and the sequence floor is raised, making
    // the merge equivalent to a fresh restore.
    auto merged = service_->MergeSnapshotRecords(snapshot.value());
    CBVLINK_RETURN_NOT_OK(merged.status());
    merged_records = merged.value();
    if (merged_records > 0) AppliedCounter()->Add(merged_records);
  }

  // Ask the primary where its journal stands right now; the snapshot we
  // just restored covers at least everything before the rotation that
  // snapshot save performed, and id-dedupe absorbs the overlap.
  uint64_t epoch = 0, end = 0;
  std::string frames;
  Status st = client_->FetchJournal(0, 0, &epoch, &end, &frames);
  if (st.code() == StatusCode::kFailedPrecondition) {
    // Primary runs without a journal: snapshot-only replication.
    epoch = 0;
    end = kJournalHeaderSize;
    frames.clear();
  } else {
    CBVLINK_RETURN_NOT_OK(st);
  }
  epoch_ = epoch;
  fetch_offset_ = kJournalHeaderSize;
  decoder_ = JournalFrameDecoder();
  {
    std::lock_guard<std::mutex> lock(mu_);
    progress_.epoch = epoch_;
    progress_.applied_offset = fetch_offset_;
    progress_.end_offset = end;
    progress_.lag_bytes = end > fetch_offset_ ? end - fetch_offset_ : 0;
    progress_.applied_records += merged_records;
    ++progress_.syncs;
  }
  SyncsCounter()->Add(1);
  return Status::OK();
}

Status Replica::FetchOnce(bool* made_progress) {
  *made_progress = false;
  // The failure path drops the connection and the re-sync may fail
  // before re-establishing it (primary down, connection refused);
  // reaching here with no client is a link-down condition, not a bug.
  if (client_ == nullptr) {
    return Status::IOError("replication link down: not connected");
  }
  // One trace per follow cycle.  Only cycles that made progress reach
  // the sink — offering every idle poll would evict the interesting
  // traces from the sink's ring.
  std::shared_ptr<telemetry::TraceCollector> trace;
  uint64_t cycle_start_us = 0;
  if (options_.trace_sink != nullptr) {
    trace = std::make_shared<telemetry::TraceCollector>(
        telemetry::GenerateTraceId());
    cycle_start_us = telemetry::TraceNowMicros();
  }
  telemetry::ScopedTraceContext trace_scope(
      trace.get(), trace != nullptr ? trace->root_span_id() : 0);
  auto finish_trace = [&]() {
    if (trace == nullptr || !*made_progress) return;
    const uint64_t now = telemetry::TraceNowMicros();
    telemetry::Span root;
    root.name = "replica_cycle";
    root.span_id = trace->root_span_id();
    root.start_us = cycle_start_us;
    root.dur_us = now > cycle_start_us ? now - cycle_start_us : 0;
    root.thread = telemetry::TraceThreadSlot();
    trace->Record(root);
    options_.trace_sink->Finish(*trace, root.dur_us);
  };
  uint64_t epoch = 0, end = 0;
  std::string frames;
  {
    telemetry::TraceSpan fetch_span("replica_fetch");
    CBVLINK_RETURN_NOT_OK(
        client_->FetchJournal(epoch_, fetch_offset_, &epoch, &end, &frames));
    fetch_span.Annotate("bytes", frames.size());
  }
  if (epoch != epoch_) {
    // The journal rotated under our cursor: the dropped prefix is
    // covered by a newer snapshot, so bootstrap again from it.
    CBVLINK_RETURN_NOT_OK(SyncFromSnapshot());
    *made_progress = true;
    finish_trace();
    return Status::OK();
  }
  uint64_t applied = 0;
  if (!frames.empty()) {
    *made_progress = true;
    fetch_offset_ += frames.size();
    telemetry::TraceSpan apply_span("replica_apply");
    decoder_.Feed(frames);
    while (true) {
      MutationOp op;
      JournalFrameDecoder::Next next = decoder_.Pop(&op);
      if (next == JournalFrameDecoder::Next::kNeedMore) break;
      if (next == JournalFrameDecoder::Next::kCorrupt) {
        // A corrupt frame over a CRC-checked transport means the
        // primary's journal itself is torn past our cursor; re-sync.
        apply_span.End();
        CBVLINK_RETURN_NOT_OK(SyncFromSnapshot());
        finish_trace();
        return Status::OK();
      }
      auto changed = service_->ApplyMutation(op);
      CBVLINK_RETURN_NOT_OK(changed.status());
      if (changed.value()) ++applied;
    }
    apply_span.Annotate("applied", applied);
  }
  if (applied > 0) AppliedCounter()->Add(applied);
  const uint64_t applied_offset = kJournalHeaderSize + decoder_.consumed_bytes();
  const uint64_t lag = end > applied_offset ? end - applied_offset : 0;
  LagGauge()->Set(static_cast<double>(lag));
  {
    std::lock_guard<std::mutex> lock(mu_);
    progress_.epoch = epoch_;
    progress_.applied_offset = applied_offset;
    progress_.end_offset = end;
    progress_.lag_bytes = lag;
    progress_.applied_records += applied;
  }
  finish_trace();
  return Status::OK();
}

void Replica::FollowLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    bool made_progress = false;
    Status st = FetchOnce(&made_progress);
    if (st.ok()) {
      NoteSuccess();
      backoff_.Reset();
      // Caught up: wait out the poll interval (or a Stop()).
      if (!made_progress && !SleepFor(options_.poll_interval_ms)) return;
      continue;
    }
    // Transport errors: drop the connection, back off (capped
    // exponential + jitter — consecutive failures wait longer and
    // desynchronize), then re-sync from a snapshot (the primary may
    // have restarted with a rotated journal).
    NoteFailure(st);
    client_.reset();
    if (!SleepFor(backoff_.NextDelayMs())) return;
    MaybeHalfOpen();  // the re-sync below is the circuit's probe
    Status resync = SyncFromSnapshot();
    if (resync.ok()) {
      NoteSuccess();
      backoff_.Reset();
    } else {
      NoteFailure(resync);
    }
  }
}

}  // namespace net
}  // namespace cbvlink
