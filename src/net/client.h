// Blocking binary-protocol client for the network serving tier — the
// counterpart of src/net/server.h used by the cbvlink_query CLI, the
// replication follower (src/net/replication.h), the network tests and
// perfbench's serving workloads.
//
// One NetClient is one TCP connection in binary mode (it sends the
// "CBVP" preamble on connect).  Calls are synchronous request/response
// and the object is NOT thread-safe — use one client per thread.  A
// server-side kError frame comes back as the carried Status (so a shed
// request surfaces as ResourceExhausted, distinguishable from transport
// failures, which surface as IOError).

#ifndef CBVLINK_NET_CLIENT_H_
#define CBVLINK_NET_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/backoff.h"
#include "src/common/deadline.h"
#include "src/common/record.h"
#include "src/common/status.h"
#include "src/net/protocol.h"

namespace cbvlink {
namespace net {

struct NetClientOptions {
  /// Connect timeout (SO_SNDTIMEO during the handshake).
  int connect_timeout_ms = 5000;
  /// Per-call send/receive timeout; 0 = no timeout.
  int io_timeout_ms = 30000;
};

/// Splits "host:port" (or ":port" / "port", meaning 127.0.0.1).  Port 0
/// is accepted — its meaning (ephemeral bind) is the caller's; Connect
/// rejects it.
Status ParseHostPort(const std::string& spec, std::string* host,
                     uint16_t* port);

class NetClient {
 public:
  static Result<std::unique_ptr<NetClient>> Connect(
      const std::string& host, uint16_t port, NetClientOptions options = {});

  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Typed calls.  A finite `deadline` is propagated to the server (a
  /// kDeadline prefix frame carrying the remaining budget) and bounds
  /// the local socket timeouts for the exchange, so the call returns —
  /// success or failure — within roughly the budget.  The default
  /// (infinite) deadline keeps the plain io_timeout_ms behavior.
  Status Ping(const Deadline& deadline = {});
  Status Match(const Record& record, std::vector<IdPair>* out,
               const Deadline& deadline = {});
  Status MatchAndInsert(const Record& record, std::vector<IdPair>* out,
                        const Deadline& deadline = {});
  Status Insert(const Record& record, const Deadline& deadline = {});
  /// Tombstones `id` (NotFound when it is not live).
  Status Delete(RecordId id, const Deadline& deadline = {});
  /// Replaces the live record with `record.id` (NotFound when absent).
  Status Update(const Record& record, const Deadline& deadline = {});

  /// Fetches a complete snapshot stream (the bytes WriteServiceSnapshot
  /// produces) into `*snapshot_bytes`.
  Status FetchSnapshot(std::string* snapshot_bytes);

  /// Fetches raw journal frames from (epoch, offset).  On return
  /// `*out_epoch` is the server's current epoch (a mismatch with
  /// `epoch` means the journal rotated and the caller must re-sync) and
  /// `*out_end` its end offset (lag = out_end - offset - frames.size()).
  Status FetchJournal(uint64_t epoch, uint64_t offset, uint64_t* out_epoch,
                      uint64_t* out_end, std::string* frames);

  /// Fetches the server's telemetry JSON.
  Status Stats(std::string* json, const Deadline& deadline = {});

  /// The retry_after_ms hint carried by the last kError reply (0 when
  /// the server sent none) — the binary analogue of HTTP Retry-After.
  uint32_t last_retry_after_ms() const { return last_retry_after_ms_; }

  /// Arms trace propagation: subsequent typed calls carry a
  /// kTraceContext prefix frame with this id, and the server answers
  /// them with a kServerTiming frame (captured below).  Sticky until
  /// changed; 0 disarms.
  void set_trace(uint64_t trace_id, uint64_t parent_span_id = 0) {
    trace_id_ = trace_id;
    trace_parent_span_id_ = parent_span_id;
  }
  uint64_t trace_id() const { return trace_id_; }

  /// The per-stage timings carried by the last reply's kServerTiming
  /// frame (empty when the call was untraced or the server predates
  /// tracing), and the trace id it was stamped with.
  const std::vector<StageTiming>& last_server_timing() const {
    return last_server_timing_;
  }
  uint64_t last_server_timing_trace_id() const {
    return last_server_timing_trace_id_;
  }

  /// One raw request/response exchange (test support; production code
  /// should prefer the typed calls above).
  Status Call(MsgType type, std::string_view payload, Frame* reply);

  /// Pipelines `count` requests of `type` — copies of `base` with ids
  /// base.id, base.id+1, ... (kDelete frames carry just the id) —
  /// writing them all before reading any
  /// reply, then invokes `on_reply(i, frame)` for each response in
  /// order.  This is how a client overruns the server's admission queue
  /// on purpose (shed replies arrive as kError frames carrying
  /// ResourceExhausted).  Returns the first transport error.
  Status PipelinedBurst(MsgType type, const Record& base, size_t count,
                        const std::function<void(size_t, const Frame&)>& on_reply);

 private:
  NetClient(int fd, NetClientOptions options);

  Status SendAll(std::string_view bytes);
  Status ReadFrame(Frame* frame);
  /// ReadFrame that absorbs kServerTiming annotation frames (stashing
  /// them into last_server_timing_) and returns the next real reply.
  Status ReadReply(Frame* frame);
  /// Appends the armed kTraceContext prefix frame, if any.
  void AppendTracePrefix(std::string* wire) const;
  /// Call() with an optional kDeadline prefix and deadline-bounded
  /// socket timeouts.
  Status CallWithDeadline(MsgType type, std::string_view payload,
                          const Deadline& deadline, Frame* reply);
  /// Call() + kError unwrapping + reply-type check.
  Status Roundtrip(MsgType type, std::string_view payload, MsgType expect,
                   Frame* reply, const Deadline& deadline = {});
  void ApplyTimeouts(int ms);

  int fd_ = -1;
  NetClientOptions options_;
  FrameDecoder decoder_;
  uint32_t last_retry_after_ms_ = 0;
  uint64_t trace_id_ = 0;
  uint64_t trace_parent_span_id_ = 0;
  std::vector<StageTiming> last_server_timing_;
  uint64_t last_server_timing_trace_id_ = 0;
};

/// How RetryingClient retries.  Every operation is safe to retry:
/// ping/match/stats are pure reads; insert/match_and_insert are
/// idempotent because the journal replay (and replication apply) path
/// dedupes by record id — a duplicate insert of the same record is a
/// no-op (tests/test_chaos.cc asserts this); delete/update are
/// idempotent by construction (a repeated delete answers NotFound, a
/// repeated update rewrites the same bytes) and their journal frames
/// carry the acknowledgement sequence, so replay dedupes them by
/// id + sequence.  NotFound itself is non-retryable, like the other
/// request errors.
struct RetryPolicy {
  /// Total tries, including the first (1 = no retries).
  int max_attempts = 4;
  /// Budget per attempt; 0 = only the connection's io_timeout_ms.
  int per_attempt_timeout_ms = 5000;
  /// Total budget across attempts and backoff sleeps; 0 = unbounded.
  int total_timeout_ms = 0;
  /// Obey the server's Retry-After hint when it exceeds the backoff.
  bool honor_retry_after = true;
  BackoffOptions backoff;
};

/// A reconnecting, retrying wrapper over NetClient.  Transport errors
/// drop the connection and the next attempt reconnects; server sheds
/// (ResourceExhausted) honor the Retry-After hint; DEADLINE_EXCEEDED
/// retries with a fresh per-attempt budget while the total budget
/// lasts.  Non-retryable statuses (InvalidArgument, FailedPrecondition,
/// NotFound, ...) return immediately.  NOT thread-safe, like NetClient.
class RetryingClient {
 public:
  struct Counters {
    uint64_t attempts = 0;          ///< operations tried (>= calls)
    uint64_t retries = 0;           ///< attempts after the first
    uint64_t reconnects = 0;        ///< connections re-established
    uint64_t sheds_seen = 0;        ///< ResourceExhausted replies
    uint64_t deadline_seen = 0;     ///< DeadlineExceeded replies
    uint64_t transport_errors = 0;  ///< IOError (reset, timeout, EOF)
  };

  RetryingClient(std::string host, uint16_t port, RetryPolicy policy = {},
                 NetClientOptions conn_options = {});

  Status Ping();
  Status Match(const Record& record, std::vector<IdPair>* out);
  Status MatchAndInsert(const Record& record, std::vector<IdPair>* out);
  Status Insert(const Record& record);
  Status Delete(RecordId id);
  Status Update(const Record& record);
  Status Stats(std::string* json);

  /// Arms trace propagation.  The id is stamped onto the underlying
  /// connection before EVERY attempt — including after a reconnect — so
  /// all retries of one operation share one trace id and the server's
  /// captured traces tell the retries of one logical call apart from
  /// distinct calls.  Sticky until changed; 0 disarms.
  void set_trace(uint64_t trace_id) { trace_id_ = trace_id; }
  uint64_t trace_id() const { return trace_id_; }

  /// Stage timings from the last successful attempt (see
  /// NetClient::last_server_timing).
  std::vector<StageTiming> last_server_timing() const {
    return client_ != nullptr ? client_->last_server_timing()
                              : std::vector<StageTiming>{};
  }

  const Counters& counters() const { return counters_; }

 private:
  Status Execute(
      const std::function<Status(NetClient&, const Deadline&)>& op);
  Status EnsureConnected(const Deadline& attempt_deadline);

  std::string host_;
  uint16_t port_;
  RetryPolicy policy_;
  NetClientOptions conn_options_;
  Backoff backoff_;
  std::unique_ptr<NetClient> client_;
  Counters counters_;
  uint64_t trace_id_ = 0;
};

}  // namespace net
}  // namespace cbvlink

#endif  // CBVLINK_NET_CLIENT_H_
