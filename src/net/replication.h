// Warm-standby replication: a Replica bootstraps from a primary's
// snapshot (kFetchSnapshot) and then follows its mutation journal
// (kFetchJournal) over the binary protocol, applying each decoded
// insert/delete/update frame to a local LinkageService.  The replica's
// service can be served read-only by a NetServer (options.read_only)
// and promoted to a primary when the original dies.
//
// Cursor protocol: the follower carries (epoch, offset).  The primary
// answers with its current epoch and end offset; an epoch change means
// the journal rotated under the cursor (a snapshot save dropped the
// covered prefix), so the follower re-syncs from a fresh snapshot —
// cheap, because rotation implies a newer snapshot exists.  Frames that
// overlap the snapshot are skipped exactly like local journal replay
// (LinkageService::ApplyMutation): inserts dedupe by record id,
// delete/update frames by their acknowledgement sequence against the
// snapshot's sequence floor.
//
// Lag is measured in journal bytes (primary end offset minus the
// follower's applied offset) and exported as the
// `replication_lag_bytes` gauge.

#ifndef CBVLINK_NET_REPLICATION_H_
#define CBVLINK_NET_REPLICATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/common/backoff.h"
#include "src/common/execution.h"
#include "src/common/status.h"
#include "src/io/journal.h"
#include "src/net/client.h"

namespace cbvlink {

class LinkageService;

namespace telemetry {
class TraceSink;
}  // namespace telemetry

namespace net {

struct ReplicaOptions {
  std::string primary_host = "127.0.0.1";
  uint16_t primary_port = 0;
  /// Journal poll cadence once caught up (a fetch returning frames
  /// polls again immediately).
  int poll_interval_ms = 200;
  /// Client timeouts for the follow connection.
  int connect_timeout_ms = 5000;
  int io_timeout_ms = 30000;
  /// Wait between retries after a failed fetch/re-sync: capped
  /// exponential with decorrelated jitter, so a fleet of followers that
  /// lost the same primary does not stampede it on recovery.
  BackoffOptions failure_backoff{/*base_ms=*/100, /*max_ms=*/5000};
  /// Consecutive failures before the circuit breaker opens.
  int circuit_open_after_failures = 3;
  /// Execution of the standby's service (its batch APIs and the index
  /// rebuild of the initial sync), as LinkageService::Restore() takes it.
  ExecutionOptions execution = ExecutionOptions::WithThreads(0);
  /// Request tracing sink.  When set, every follow cycle that made
  /// progress (frames applied or a re-sync) records a span tree —
  /// replica_fetch / replica_apply / replica_sync — under a
  /// "replica_cycle" root; idle polls are discarded without touching
  /// the sink.  Null (default) disables tracing.  Borrowed: must
  /// outlive the Replica.
  telemetry::TraceSink* trace_sink = nullptr;
};

/// Circuit-breaker state of the follow connection, exported as the
/// `replication_circuit_state` gauge (0/1/2 in enum order).
///   closed    — following normally.
///   open      — consecutive failures crossed the threshold; the
///               follower is backing off, not hammering the primary.
///   half_open — backoff elapsed; the next sync attempt is the probe
///               that either closes the circuit or re-opens it.
enum class CircuitState : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

/// A point-in-time view of the follower's progress.
struct ReplicaProgress {
  /// True while the initial snapshot sync (or a re-sync) is running.
  bool syncing = true;
  uint64_t epoch = 0;
  /// Byte offset of the last fully applied frame boundary.
  uint64_t applied_offset = 0;
  /// The primary's end offset at the last successful fetch.
  uint64_t end_offset = 0;
  /// end_offset - applied_offset.
  uint64_t lag_bytes = 0;
  /// Journal records applied since Start (dedupe-skipped ones excluded;
  /// a snapshot sync, first or re-sync, applies none).
  uint64_t applied_records = 0;
  /// Snapshot (re-)syncs completed.
  uint64_t syncs = 0;
  /// Last follow-loop error (transient errors are retried; cleared once
  /// the follower recovers).
  std::string last_error;
  /// Circuit breaker over the follow connection.
  CircuitState circuit = CircuitState::kClosed;
  uint64_t consecutive_failures = 0;
};

/// The warm standby.  Start() performs the initial snapshot sync
/// synchronously (so a returned Replica is immediately serviceable) and
/// spawns the follow thread.
class Replica {
 public:
  static Result<std::unique_ptr<Replica>> Start(ReplicaOptions options);

  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// The replica's service (owned by the Replica until Promote()).
  /// Serve it read-only; mutations race the follow thread.  The pointer
  /// is stable for the Replica's lifetime: a re-sync installs the
  /// snapshot inside this object (InstallSnapshot).
  LinkageService* service() const;

  ReplicaProgress progress() const;

  /// Stops following and transfers service ownership to the caller:
  /// the returned service is now a primary (attach a journal, serve
  /// writes).  The Replica is inert afterwards.
  std::unique_ptr<LinkageService> Promote();

  /// Stops the follow thread without releasing the service.  Returns
  /// promptly: the follow thread sleeps on a condition variable that
  /// Stop() signals, never on fixed ticks.
  void Stop();

 private:
  Replica() = default;

  void FollowLoop();
  /// Interruptible sleep: returns early (false) when Stop() is called.
  bool SleepFor(int64_t ms);
  void NoteSuccess();
  void NoteFailure(const Status& error);
  /// open -> half_open, once the backoff before a probe has elapsed.
  void MaybeHalfOpen();
  /// One snapshot sync: fetch, restore (first time) or install into the
  /// existing service (re-sync — keeps service() pointer-stable), reset
  /// the cursor.  Maintains progress().syncing around the Impl body.
  Status SyncFromSnapshot();
  Status SyncFromSnapshotImpl();
  /// One journal fetch + apply pass.  Sets `*made_progress` when frames
  /// were received.
  Status FetchOnce(bool* made_progress);

  ReplicaOptions options_;
  std::unique_ptr<LinkageService> service_;

  std::thread follow_thread_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mu_;
  std::condition_variable wake_cv_;  // signalled by Stop()
  ReplicaProgress progress_;

  // Follow-thread-only retry pacing.
  Backoff backoff_;

  // Follow-thread-only cursor state (also touched by Start's initial
  // synchronous sync, before the thread exists).
  std::unique_ptr<NetClient> client_;
  uint64_t epoch_ = 0;
  uint64_t fetch_offset_ = 0;  // next byte to request
  JournalFrameDecoder decoder_;  // buffers a frame split across fetches
};

}  // namespace net
}  // namespace cbvlink

#endif  // CBVLINK_NET_REPLICATION_H_
