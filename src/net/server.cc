#include "src/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <iterator>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/deadline.h"
#include "src/common/str.h"
#include "src/common/thread_pool.h"
#include "src/io/journal.h"
#include "src/io/serialization.h"
#include "src/net/protocol.h"
#include "src/net/status_map.h"
#include "src/service/linkage_service.h"
#include "src/telemetry/exporters.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/telemetry/trace_sink.h"

namespace cbvlink {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/// Bytes the IO thread reads per recv() call.
constexpr size_t kReadChunk = 64 * 1024;

/// Journal bytes served per kFetchJournal response.
constexpr size_t kJournalSegmentBytes = 4u << 20;

/// Idle sweep cadence.
constexpr int kSweepIntervalMs = 1000;

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

/// Maps a steady_clock time point onto the trace timeline (see
/// telemetry::TraceNowMicros); both run on steady_clock, so the
/// conversion is a subtraction of the elapsed gap.
uint64_t TraceMicrosAt(Clock::time_point tp) {
  const uint64_t now_us = telemetry::TraceNowMicros();
  const int64_t behind = std::chrono::duration_cast<std::chrono::microseconds>(
                             Clock::now() - tp)
                             .count();
  const uint64_t gap = behind > 0 ? static_cast<uint64_t>(behind) : 0;
  return now_us > gap ? now_us - gap : 0;
}

/// Every request the server answers, from either protocol.
/// kNotFound stands for no such frame type, HTTP path or method.
enum class Op : uint8_t {
  kPing, kMatch, kMatchAndInsert, kInsert, kDelete, kUpdate, kFetchSnapshot,
  kFetchJournal, kStats, kHealthz, kReadyz, kMetrics, kTracez, kNotFound
};

constexpr size_t kNumOps = static_cast<size_t>(Op::kNotFound) + 1;

/// Marks an op that has no binary frame.  0 is no MsgType.
constexpr MsgType kNoFrame = MsgType{};

/// The target prefix of delete and update: "/records/{id}".
constexpr std::string_view kRecordsPrefix = "/records/";

constexpr std::string_view kJson = "application/json";

/// How an op touches records.  A draining server sheds reads and writes
/// (HTTP answers both with {"pairs": ...}); a read-only replica refuses
/// writes.
enum class Work : uint8_t { kNone, kRead, kWrite };

struct OpSpec {
  MsgType frame;                  ///< binary request type, kNoFrame if none
  std::string_view route;         ///< HTTP "METHOD /target", "" if none
  MsgType reply;                  ///< binary reply frame on success
  std::string_view content_type;  ///< HTTP content type on success
  Work work;
};

/// The op table, one row per Op in declaration order: how each op is
/// addressed on both protocols and what it answers.
const OpSpec& Spec(Op op) {
  using enum MsgType;
  using enum Work;
  static constexpr OpSpec kOps[] = {
      {kPing, "", kPong, "", kNone},
      {kMatch, "POST /match", kMatchResult, kJson, kRead},
      {kMatchAndInsert, "POST /match_and_insert", kMatchResult, kJson, kWrite},
      {kInsert, "POST /insert", kInserted, kJson, kWrite},
      {kDelete, "DELETE /records/", kDeleted, kJson, kWrite},
      {kUpdate, "PUT /records/", kUpdated, kJson, kWrite},
      {kFetchSnapshot, "", kSnapshotData, "", kNone},
      {kFetchJournal, "", kJournalData, "", kNone},
      {kStats, "GET /stats", kStatsJson, kJson, kNone},
      {kNoFrame, "GET /healthz", kNoFrame, "text/plain", kNone},
      {kNoFrame, "GET /readyz", kNoFrame, "text/plain", kNone},
      {kNoFrame, "GET /metrics", kNoFrame, "text/plain; version=0.0.4", kNone},
      {kNoFrame, "GET /tracez", kNoFrame, kJson, kNone},
      {kNoFrame, "", kNoFrame, "", kNone},  // kNotFound
  };
  static_assert(std::size(kOps) == kNumOps, "one row per Op");
  return kOps[static_cast<size_t>(op)];
}

/// The op a binary frame type names.
Op FrameOp(MsgType type) {
  for (size_t i = 0; type != kNoFrame && i < kNumOps; ++i) {
    if (Spec(static_cast<Op>(i)).frame == type) return static_cast<Op>(i);
  }
  return Op::kNotFound;
}

/// The target `route` serves under `method`; "" when it serves none.
std::string_view RouteTarget(std::string_view route, std::string_view method) {
  const size_t space = route.find(' ');
  return space != std::string_view::npos && route.substr(0, space) == method
             ? route.substr(space + 1)
             : std::string_view();
}

/// Parses the {id} of a "/records/{id}" target (decimal, no trailing
/// bytes).  Returns false for any other target.
bool ParseRecordsTarget(std::string_view target, RecordId* id) {
  if (!target.starts_with(kRecordsPrefix)) return false;
  const std::string_view digits = target.substr(kRecordsPrefix.size());
  size_t consumed = 0;
  return ParseDecimalU64(digits, id, &consumed).ok() &&
         consumed == digits.size();
}

/// The op an HTTP method and target name; a "/records/{id}" target puts
/// its id in `*id`.
Op HttpOp(const HttpRequest& http, RecordId* id) {
  for (size_t i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    const std::string_view target = RouteTarget(Spec(op).route, http.method);
    if (target.empty()) continue;
    if (target == kRecordsPrefix ? ParseRecordsTarget(http.target, id)
                                 : target == http.target) {
      return op;
    }
  }
  return Op::kNotFound;
}

/// True when some op is routed under `method`: an unrouted method is
/// 400 "unsupported method", an unrouted path 404.
bool KnownHttpMethod(std::string_view method) {
  for (size_t i = 0; i < kNumOps; ++i) {
    if (!RouteTarget(Spec(static_cast<Op>(i)).route, method).empty()) {
      return true;
    }
  }
  return false;
}

/// One parsed, admitted request waiting for a worker.
struct PendingRequest {
  bool is_http = false;
  Frame frame;       // binary mode
  HttpRequest http;  // HTTP mode
  /// Classified at admission; the payload is decoded on the worker.
  Op op = Op::kNotFound;
  /// The {id} of an HTTP "/records/{id}" target.
  RecordId target_id = 0;
  Clock::time_point admitted_at;
  /// Caller deadline (kDeadline prefix frame / X-Deadline-Ms header),
  /// re-anchored against our steady_clock at parse time.  Checked at
  /// admission and again at worker dequeue: work whose budget lapsed in
  /// the queue is answered DEADLINE_EXCEEDED instead of executed.
  Deadline deadline;
  /// Tracing (all default when the server has no sink).  `trace` is the
  /// request's span collector; `wire_trace_id`/`trace_parent` are the
  /// ids carried by kTraceContext / X-Trace-Id (0 = none, the server
  /// mints an id); `client_traced` marks peers that opted in on the
  /// wire — only those understand a kServerTiming frame.
  std::shared_ptr<telemetry::TraceCollector> trace;
  uint64_t wire_trace_id = 0;
  uint64_t trace_parent = 0;
  bool client_traced = false;
};

/// A request decoded on the worker: the op and the payload it reads.  A
/// non-OK `status` (read-only refusal, malformed payload, unknown op,
/// no journal) is the reply.
struct Request {
  Op op = Op::kNotFound;
  Status status;
  Record record;    // match, match_and_insert, insert, update
  RecordId id = 0;  // delete
  std::shared_ptr<Journal> journal;  // fetch_journal, with its cursor:
  uint64_t journal_epoch = 0;
  uint64_t journal_offset = 0;
};

/// What a request is answered with, before either renderer turns it
/// into bytes.  A non-OK `status` is an error reply.
struct Response {
  Status status;
  std::vector<IdPair> pairs{};  // record ops
  std::string body{};           // every other op's payload
  int http_code = 200;          // 503 from a draining /readyz
  uint32_t retry_after_ms = 0;  // shed replies: the drain-rate hint
};

enum class ConnMode { kUnknown, kBinary, kHttp };

struct Connection {
  explicit Connection(int fd_in) : fd(fd_in), last_activity(Clock::now()) {}

  const int fd;
  ConnMode mode = ConnMode::kUnknown;

  // IO-thread-only state (never touched by workers).
  FrameDecoder frame_decoder;
  HttpParser http_parser;
  std::string preamble;  // first bytes until the mode is known
  bool write_armed = false;
  Clock::time_point last_activity;
  /// Armed by a kDeadline prefix frame, consumed by the next request
  /// frame on this connection.
  Deadline next_deadline;
  /// Armed by a kTraceContext prefix frame, consumed by the next
  /// request frame on this connection (0 = none).
  uint64_t next_trace_id = 0;
  uint64_t next_trace_parent = 0;
  /// Slow-loris tracking: when an *incomplete* request is buffered,
  /// `partial_since` marks when its first byte arrived; the sweep reaps
  /// the connection if completion takes longer than
  /// request_progress_timeout_ms.
  bool has_partial = false;
  Clock::time_point partial_since;

  // Shared state.
  std::mutex mu;
  std::deque<PendingRequest> pending;  // admitted, unprocessed
  bool in_worker = false;              // a worker currently owns `pending`
  std::string write_buf;               // response bytes awaiting the socket
  size_t write_pos = 0;
  bool want_close = false;  // close once write_buf drains
  bool closed = false;      // fd is gone; workers must not append output
};

}  // namespace

struct NetServer::Impl {
  LinkageService* service = nullptr;
  NetServerOptions options;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;  // eventfd: worker -> IO thread, and shutdown
  uint16_t bound_port = 0;

  std::thread io_thread;
  std::vector<std::thread> workers;

  std::atomic<bool> stopping{false};

  // Admission control: admitted-but-unanswered requests.
  std::atomic<size_t> queued{0};

  // Graceful drain (see NetServer::Drain).
  std::atomic<bool> draining{false};
  std::mutex drain_mu;
  std::condition_variable drain_cv;

  // Queue drain rate, for Retry-After hints: FinishRequest bumps
  // finished_total; the IO thread differentiates it about once a second
  // and publishes a shed-retry hint derived from the current depth.
  std::atomic<uint64_t> finished_total{0};
  uint64_t rate_last_finished = 0;                // IO-thread only
  Clock::time_point rate_last_time{};             // IO-thread only
  std::atomic<uint32_t> retry_after_ms_hint{1000};

  // Worker job queue: connections with pending requests.
  std::mutex jobs_mu;
  std::condition_variable jobs_cv;
  std::deque<std::shared_ptr<Connection>> jobs;

  // Worker -> IO thread: connections with fresh output to flush.
  std::mutex notify_mu;
  std::vector<std::shared_ptr<Connection>> notify;

  // IO-thread-only connection table.
  std::unordered_map<int, std::shared_ptr<Connection>> connections;

  // Telemetry (registry outlives the server; raw pointers are safe).
  telemetry::Counter* t_accepted = nullptr;
  telemetry::Gauge* t_active = nullptr;
  telemetry::Counter* t_requests = nullptr;
  telemetry::Counter* t_shed = nullptr;
  telemetry::Counter* t_deadline_shed = nullptr;
  telemetry::Gauge* t_queue_depth = nullptr;
  telemetry::Gauge* t_drain_rate = nullptr;
  telemetry::Histogram* t_latency = nullptr;

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
  }

  // --- setup --------------------------------------------------------------

  Status Bind();
  void StartThreads();
  void ShutdownAll();

  // --- IO thread ----------------------------------------------------------

  void IoLoop();
  void AcceptAll();
  void Wake();
  void DrainNotifications();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void HandleWritable(const std::shared_ptr<Connection>& conn);
  void ArmWrite(const std::shared_ptr<Connection>& conn, bool want_read);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void SweepIdle();
  /// Parses whatever is buffered on `conn`, admitting or shedding each
  /// complete request.  Returns false when the connection must close
  /// (protocol corruption / unparseable HTTP).
  bool IngestParsed(const std::shared_ptr<Connection>& conn);
  /// Answers a request from the IO thread without queueing it (shed,
  /// deadline-expired, unparseable HTTP).  retry_after_ms == 0 omits
  /// the hint.
  void Reject(const std::shared_ptr<Connection>& conn,
              const PendingRequest& req, Status status,
              uint32_t retry_after_ms);
  void Dispatch(const std::shared_ptr<Connection>& conn);
  /// IO-loop cadence: fast enough to enforce the shortest enabled
  /// timeout with ~25% slack, capped at the 1s default.
  int TickMs() const;
  /// Re-derives the Retry-After hint from the observed completion rate
  /// and current queue depth (IO thread, about once a second).
  void UpdateDrainRate();
  /// Wakes Drain() when the admitted-request count reaches zero.
  void NoteQueueDrained();
  bool DrainAll(int deadline_ms);

  // --- workers ------------------------------------------------------------

  void WorkerLoop();
  void ProcessConnection(const std::shared_ptr<Connection>& conn);
  /// Answers a batch of requests taken off a connection in order,
  /// appending the reply bytes to `*out`.  Each request is decoded and
  /// executed on its own; a run of consecutive matches runs on the
  /// service pool.
  void ExecuteBatch(const std::vector<PendingRequest>& batch,
                    std::string* out, bool* close_after);
  /// The worker-side decode of a request's payload.  The read-only gate
  /// comes first, and a malformed record counts one skipped row.
  Request Decode(const PendingRequest& req);
  /// The one place the service ops are called, under the request's
  /// trace context.
  Response Execute(const Request& request, telemetry::TraceCollector* trace);
  void Render(const PendingRequest& req, const Response& response,
              std::string* out, bool* close_after);
  /// A kError frame or the op's reply frame, preceded by a kServerTiming
  /// frame for a peer that sent kTraceContext.
  void RenderBinary(const PendingRequest& req, const Response& response,
                    std::string* out);
  /// The status code, JSON or text body, keep-alive, and the
  /// Server-Timing / X-Trace-Id headers of a traced request.
  void RenderHttp(const PendingRequest& req, const Response& response,
                  std::string* out, bool* close_after);
  void FinishRequest(const PendingRequest& req);

  // --- tracing ------------------------------------------------------------

  /// Records the request's queue-wait span (admission -> dequeue).
  /// Call once, when a worker picks the request up.  No-op untraced.
  void StartRequestTrace(const PendingRequest& req);
  /// Per-stage durations extracted from the request's spans so far,
  /// plus the running end-to-end total — the Server-Timing payload.
  std::vector<StageTiming> StageTimingsFor(const PendingRequest& req) const;
};

// --- setup ----------------------------------------------------------------

Status NetServer::Impl::Bind() {
  t_accepted = telemetry::Registry::Global().GetCounter(
      "net_connections_accepted_total");
  t_active = telemetry::Registry::Global().GetGauge("net_connections_active");
  t_requests = telemetry::Registry::Global().GetCounter("net_requests_total");
  t_shed = telemetry::Registry::Global().GetCounter("net_shed_total");
  t_deadline_shed =
      telemetry::Registry::Global().GetCounter("net_deadline_shed_total");
  t_queue_depth = telemetry::Registry::Global().GetGauge("net_queue_depth");
  t_drain_rate =
      telemetry::Registry::Global().GetGauge("net_queue_drain_rate");
  t_latency = telemetry::Registry::Global().GetHistogram(
      "net_request_latency_us");

  listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("bad bind address: %s", options.bind_address.c_str()));
  }
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    return Errno("bind");
  if (::listen(listen_fd, 128) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0)
    return Errno("getsockname");
  bound_port = ntohs(bound.sin_port);

  epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return Errno("epoll_create1");
  wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd < 0) return Errno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) != 0)
    return Errno("epoll_ctl(listen)");
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0)
    return Errno("epoll_ctl(wake)");
  return Status::OK();
}

void NetServer::Impl::StartThreads() {
  size_t n = options.num_workers;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 2;
  }
  workers.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers.emplace_back([this] { WorkerLoop(); });
  }
  io_thread = std::thread([this] { IoLoop(); });
}

void NetServer::Impl::ShutdownAll() {
  bool was_stopping = stopping.exchange(true);
  if (!was_stopping) Wake();
  if (io_thread.joinable()) io_thread.join();
  {
    std::lock_guard<std::mutex> lock(jobs_mu);
    jobs.clear();
  }
  jobs_cv.notify_all();
  for (auto& w : workers) {
    if (w.joinable()) w.join();
  }
  workers.clear();
}

// --- IO thread ------------------------------------------------------------

void NetServer::Impl::Wake() {
  uint64_t one = 1;
  ssize_t rc = ::write(wake_fd, &one, sizeof(one));
  (void)rc;  // EAGAIN just means a wakeup is already pending
}

int NetServer::Impl::TickMs() const {
  int tick = kSweepIntervalMs;
  if (options.idle_timeout_ms > 0) {
    tick = std::min(tick, std::max(10, options.idle_timeout_ms / 4));
  }
  if (options.request_progress_timeout_ms > 0) {
    tick = std::min(tick, std::max(10, options.request_progress_timeout_ms / 4));
  }
  return tick;
}

void NetServer::Impl::IoLoop() {
  std::vector<epoll_event> events(64);
  const int tick_ms = TickMs();
  Clock::time_point last_sweep = Clock::now();
  rate_last_time = last_sweep;
  while (!stopping.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd, events.data(),
                         static_cast<int>(events.size()), tick_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.fd == listen_fd) {
        AcceptAll();
        continue;
      }
      if (ev.data.fd == wake_fd) {
        uint64_t buf;
        while (::read(wake_fd, &buf, sizeof(buf)) > 0) {
        }
        DrainNotifications();
        continue;
      }
      auto it = connections.find(ev.data.fd);
      if (it == connections.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if ((ev.events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(conn);
        continue;
      }
      if ((ev.events & EPOLLIN) != 0) HandleReadable(conn);
      // HandleReadable may have closed it (identity check: see
      // DrainNotifications).
      auto again = connections.find(conn->fd);
      if (again != connections.end() && again->second == conn &&
          (ev.events & EPOLLOUT) != 0) {
        HandleWritable(conn);
      }
    }
    if (Clock::now() - last_sweep >= std::chrono::milliseconds(tick_ms)) {
      UpdateDrainRate();
      if (options.idle_timeout_ms > 0 ||
          options.request_progress_timeout_ms > 0) {
        SweepIdle();
      }
      last_sweep = Clock::now();
    }
  }
  // Shutdown: close everything from the IO thread, which owns the fds.
  std::vector<std::shared_ptr<Connection>> all;
  all.reserve(connections.size());
  for (auto& [fd, conn] : connections) all.push_back(conn);
  for (auto& conn : all) CloseConnection(conn);
}

void NetServer::Impl::AcceptAll() {
  while (true) {
    int fd = ::accept4(listen_fd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (connections.size() >= options.max_connections) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    connections.emplace(fd, std::move(conn));
    t_accepted->Add(1);
    t_active->Set(static_cast<double>(connections.size()));
  }
}

void NetServer::Impl::DrainNotifications() {
  std::vector<std::shared_ptr<Connection>> batch;
  {
    std::lock_guard<std::mutex> lock(notify_mu);
    batch.swap(notify);
  }
  for (auto& conn : batch) {
    // Identity check, not fd check: the fd may have been closed and
    // reused by a newly accepted connection before this entry drained.
    auto it = connections.find(conn->fd);
    if (it == connections.end() || it->second != conn) continue;
    HandleWritable(conn);
  }
}

void NetServer::Impl::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[kReadChunk];
  bool got_bytes = false;
  while (true) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      got_bytes = true;
      std::string_view bytes(buf, static_cast<size_t>(n));
      if (conn->mode == ConnMode::kUnknown) {
        conn->preamble.append(bytes);
        if (conn->preamble.size() < sizeof(kBinaryPreamble)) continue;
        if (std::memcmp(conn->preamble.data(), kBinaryPreamble,
                        sizeof(kBinaryPreamble)) == 0) {
          conn->mode = ConnMode::kBinary;
          conn->frame_decoder.Feed(std::string_view(conn->preamble)
                                       .substr(sizeof(kBinaryPreamble)));
        } else {
          conn->mode = ConnMode::kHttp;
          conn->http_parser.Feed(conn->preamble);
        }
        conn->preamble.clear();
        conn->preamble.shrink_to_fit();
      } else if (conn->mode == ConnMode::kBinary) {
        conn->frame_decoder.Feed(bytes);
      } else {
        conn->http_parser.Feed(bytes);
      }
      continue;
    }
    if (n == 0) {  // peer closed
      CloseConnection(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn);
    return;
  }
  if (got_bytes) conn->last_activity = Clock::now();
  if (!IngestParsed(conn)) {
    CloseConnection(conn);
    return;
  }
  auto still = connections.find(conn->fd);
  if (still == connections.end() || still->second != conn) return;
  // Slow-loris accounting: a leftover *incomplete* request starts (or
  // continues) the progress clock; a fully-consumed buffer clears it.
  bool partial;
  switch (conn->mode) {
    case ConnMode::kBinary:
      partial = conn->frame_decoder.buffered_bytes() > 0;
      break;
    case ConnMode::kHttp:
      partial = conn->http_parser.buffered_bytes() > 0;
      break;
    default:
      partial = !conn->preamble.empty();
  }
  if (partial && !conn->has_partial) {
    conn->has_partial = true;
    conn->partial_since = Clock::now();
  } else if (!partial) {
    conn->has_partial = false;
  }
}

bool NetServer::Impl::IngestParsed(const std::shared_ptr<Connection>& conn) {
  if (conn->mode == ConnMode::kUnknown) return true;
  bool dispatch = false;
  while (true) {
    {
      // Once the connection is draining toward close (shed without
      // keep-alive, a 400, or a worker honoring "Connection: close"),
      // stop admitting pipelined requests — no response may follow the
      // one marked close.
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->want_close) break;
    }
    PendingRequest req;
    if (conn->mode == ConnMode::kBinary) {
      FrameDecoder::Next next = conn->frame_decoder.Pop(&req.frame);
      if (next == FrameDecoder::Next::kNeedMore) break;
      if (next == FrameDecoder::Next::kCorrupt) return false;
      if (req.frame.type == MsgType::kDeadline) {
        // Not a request: arms a deadline for the next frame.  A
        // malformed payload is protocol corruption — drop the stream.
        uint32_t budget_ms = 0;
        if (!DecodeDeadlinePayload(req.frame.payload, &budget_ms).ok()) {
          return false;
        }
        conn->next_deadline = Deadline::AfterMs(budget_ms);
        continue;
      }
      if (req.frame.type == MsgType::kTraceContext) {
        // Same prefix discipline as kDeadline: arms trace ids for the
        // next request frame; a malformed payload is corruption.
        uint64_t trace_id = 0, parent = 0;
        if (!DecodeTraceContextPayload(req.frame.payload, &trace_id, &parent)
                 .ok()) {
          return false;
        }
        conn->next_trace_id = trace_id;
        conn->next_trace_parent = parent;
        continue;
      }
      req.deadline = conn->next_deadline;
      conn->next_deadline = Deadline::Infinite();
      req.wire_trace_id = conn->next_trace_id;
      req.trace_parent = conn->next_trace_parent;
      conn->next_trace_id = 0;
      conn->next_trace_parent = 0;
      req.is_http = false;
      req.op = FrameOp(req.frame.type);
    } else {
      HttpParser::Next next = conn->http_parser.Pop(&req.http);
      if (next == HttpParser::Next::kNeedMore) break;
      req.is_http = true;
      if (next == HttpParser::Next::kBad) {
        // One parse error response, then close (the stream is unframed
        // garbage from here on).
        req.http.keep_alive = false;
        Reject(conn, req, conn->http_parser.error(), 0);
        return true;  // keep open to flush the 400
      }
      if (req.http.deadline_ms >= 0) {
        req.deadline = Deadline::AfterMs(req.http.deadline_ms);
      }
      req.wire_trace_id = req.http.trace_id;
      req.trace_parent = req.http.trace_parent;
      req.op = HttpOp(req.http, &req.target_id);
    }
    // Admission-time deadline check: work that is already expired (a
    // zero budget, or parse-to-admission delay ate it) is answered
    // DEADLINE_EXCEEDED without ever taking a queue slot.  Distinct
    // from the 429 shed below — the queue may have had room.
    if (req.deadline.Expired()) {
      t_deadline_shed->Add(1);
      Reject(conn, req,
             Status::DeadlineExceeded("deadline expired before admission"), 0);
      continue;
    }
    // Admission control: queue-full shed, and the drain-mode shed of
    // new work (reads, probes and journal fetches still pass so health
    // checks and replicas work through a drain).
    const bool drain_shed = draining.load(std::memory_order_acquire) &&
                            Spec(req.op).work != Work::kNone;
    size_t depth = queued.load(std::memory_order_relaxed);
    if (depth >= options.max_queue || drain_shed) {
      t_shed->Add(1);
      const Status shed =
          drain_shed
              ? Status::ResourceExhausted("server draining")
              : Status::ResourceExhausted(
                    "server overloaded: request queue full");
      Reject(conn, req, shed,
             retry_after_ms_hint.load(std::memory_order_relaxed));
      continue;
    }
    queued.fetch_add(1, std::memory_order_relaxed);
    t_queue_depth->Set(static_cast<double>(depth + 1));
    req.admitted_at = Clock::now();
    if (options.trace_sink != nullptr) {
      // Every admitted request records (tail capture needs the spans of
      // traces that only turn out slow at the end); the sink's policy
      // decides at FinishRequest which trees survive.
      req.client_traced = req.wire_trace_id != 0;
      req.trace = std::make_shared<telemetry::TraceCollector>(
          req.client_traced ? req.wire_trace_id
                            : telemetry::GenerateTraceId());
    }
    // "Connection: close" makes this the connection's last request; the
    // worker will set want_close, so admit nothing pipelined behind it.
    const bool last_request = req.is_http && !req.http.keep_alive;
    bool was_idle;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      was_idle = !conn->in_worker;
      conn->in_worker = true;
      conn->pending.push_back(std::move(req));
    }
    if (was_idle) dispatch = true;
    if (last_request) break;
  }
  if (dispatch) Dispatch(conn);
  return true;
}

void NetServer::Impl::Reject(const std::shared_ptr<Connection>& conn,
                             const PendingRequest& req, Status status,
                             uint32_t retry_after_ms) {
  std::string resp;
  bool close_after = false;
  Render(req, {.status = std::move(status), .retry_after_ms = retry_after_ms},
         &resp, &close_after);
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->write_buf.append(resp);
  // A reply that says "Connection: close" is the connection's last.
  if (close_after) conn->want_close = true;
  ArmWrite(conn, /*want_read=*/!conn->want_close);
}

void NetServer::Impl::Dispatch(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(jobs_mu);
    jobs.push_back(conn);
  }
  jobs_cv.notify_one();
}

void NetServer::Impl::ArmWrite(const std::shared_ptr<Connection>& conn,
                               bool want_read) {
  // IO-thread only.  Arms EPOLLOUT (plus EPOLLIN unless the connection
  // is draining toward close).
  if (conn->write_armed) return;
  epoll_event ev{};
  ev.events = EPOLLOUT | (want_read ? EPOLLIN : 0u);
  ev.data.fd = conn->fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev) == 0)
    conn->write_armed = true;
}

void NetServer::Impl::HandleWritable(const std::shared_ptr<Connection>& conn) {
  bool close_now = false;
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;  // fd is gone (and may belong to someone else)
    while (conn->write_pos < conn->write_buf.size()) {
      ssize_t n = ::send(conn->fd, conn->write_buf.data() + conn->write_pos,
                         conn->write_buf.size() - conn->write_pos,
                         MSG_NOSIGNAL);
      if (n > 0) {
        conn->write_pos += static_cast<size_t>(n);
        conn->last_activity = Clock::now();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_now = true;  // hard write error
      break;
    }
    if (conn->write_pos >= conn->write_buf.size()) {
      conn->write_buf.clear();
      conn->write_pos = 0;
      drained = true;
      if (conn->want_close) close_now = true;
    }
  }
  if (close_now) {
    CloseConnection(conn);
    return;
  }
  if (drained) {
    if (conn->write_armed) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = conn->fd;
      ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
      conn->write_armed = false;
    }
  } else {
    conn->write_armed = false;  // force a re-arm
    std::lock_guard<std::mutex> lock(conn->mu);
    ArmWrite(conn, !conn->want_close);
  }
}

void NetServer::Impl::CloseConnection(const std::shared_ptr<Connection>& conn) {
  size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    // Admitted requests die with the connection; release their queue
    // slots (a worker holding this connection re-checks `closed`).
    if (!conn->in_worker) {
      dropped = conn->pending.size();
      conn->pending.clear();
    }
  }
  if (dropped > 0) {
    queued.fetch_sub(dropped, std::memory_order_relaxed);
    t_queue_depth->Set(
        static_cast<double>(queued.load(std::memory_order_relaxed)));
    NoteQueueDrained();
  }
  ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections.erase(conn->fd);
  t_active->Set(static_cast<double>(connections.size()));
}

void NetServer::Impl::SweepIdle() {
  const auto now = Clock::now();
  const auto idle_cutoff =
      now - std::chrono::milliseconds(options.idle_timeout_ms);
  const auto progress_cutoff =
      now - std::chrono::milliseconds(options.request_progress_timeout_ms);
  std::vector<std::shared_ptr<Connection>> doomed;
  for (auto& [fd, conn] : connections) {
    // A trickling request is reaped on the progress clock no matter how
    // recently its last byte arrived (each byte resets the idle clock,
    // which is exactly the slow-loris hole).
    if (options.request_progress_timeout_ms > 0 && conn->has_partial &&
        conn->partial_since < progress_cutoff) {
      doomed.push_back(conn);
      continue;
    }
    if (options.idle_timeout_ms <= 0) continue;
    bool busy;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      busy = conn->in_worker || !conn->pending.empty();
    }
    if (!busy && conn->last_activity < idle_cutoff) doomed.push_back(conn);
  }
  for (auto& conn : doomed) CloseConnection(conn);
}

void NetServer::Impl::UpdateDrainRate() {
  const auto now = Clock::now();
  const double dt =
      std::chrono::duration<double>(now - rate_last_time).count();
  if (dt < 0.5) return;
  const uint64_t finished = finished_total.load(std::memory_order_relaxed);
  const double rate = static_cast<double>(finished - rate_last_finished) / dt;
  rate_last_finished = finished;
  rate_last_time = now;
  // Published so operators (and the serve CLI's --stats-interval line)
  // see the same drain rate the Retry-After hint is derived from.
  t_drain_rate->Set(rate);
  const double depth =
      static_cast<double>(queued.load(std::memory_order_relaxed));
  uint32_t hint_ms;
  if (rate > 0.0) {
    // Time to drain the current queue at the observed completion rate.
    hint_ms = static_cast<uint32_t>(
        std::min(30000.0, std::max(1000.0, 1000.0 * depth / rate)));
  } else if (depth > 0.0) {
    // Saturated and nothing completing: push retries out further each
    // window, up to the cap.
    hint_ms = std::min<uint32_t>(
        30000, retry_after_ms_hint.load(std::memory_order_relaxed) * 2);
  } else {
    hint_ms = 1000;
  }
  retry_after_ms_hint.store(hint_ms, std::memory_order_relaxed);
}

// --- workers --------------------------------------------------------------

void NetServer::Impl::WorkerLoop() {
  while (true) {
    std::shared_ptr<Connection> conn;
    {
      std::unique_lock<std::mutex> lock(jobs_mu);
      jobs_cv.wait(lock, [this] {
        return stopping.load(std::memory_order_acquire) || !jobs.empty();
      });
      if (jobs.empty()) return;  // stopping
      conn = std::move(jobs.front());
      jobs.pop_front();
    }
    ProcessConnection(conn);
  }
}

void NetServer::Impl::ProcessConnection(
    const std::shared_ptr<Connection>& conn) {
  while (true) {
    std::vector<PendingRequest> batch;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->closed || conn->pending.empty()) {
        conn->in_worker = false;
        if (!conn->pending.empty()) {
          // Closed with admitted requests still queued: release slots.
          queued.fetch_sub(conn->pending.size(), std::memory_order_relaxed);
          conn->pending.clear();
        }
        t_queue_depth->Set(
            static_cast<double>(queued.load(std::memory_order_relaxed)));
        NoteQueueDrained();
        return;
      }
      batch.reserve(conn->pending.size());
      for (auto& req : conn->pending) batch.push_back(std::move(req));
      conn->pending.clear();
    }
    std::string out;
    bool close_after = false;
    ExecuteBatch(batch, &out, &close_after);
    bool notify_io = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->closed) {
        conn->write_buf.append(out);
        if (close_after) conn->want_close = true;
        notify_io = true;
      }
    }
    queued.fetch_sub(batch.size(), std::memory_order_relaxed);
    t_queue_depth->Set(
        static_cast<double>(queued.load(std::memory_order_relaxed)));
    NoteQueueDrained();
    if (notify_io) {
      {
        std::lock_guard<std::mutex> lock(notify_mu);
        notify.push_back(conn);
      }
      Wake();
    }
    // Loop: new requests may have been admitted while we were busy
    // (in_worker stayed true, so nobody else dispatched them).
  }
}

void NetServer::Impl::StartRequestTrace(const PendingRequest& req) {
  if (req.trace == nullptr) return;
  telemetry::Span queue;
  queue.name = "queue";
  queue.span_id = req.trace->NextSpanId();
  queue.parent_span_id = req.trace->root_span_id();
  queue.start_us = TraceMicrosAt(req.admitted_at);
  const uint64_t now_us = telemetry::TraceNowMicros();
  queue.dur_us = now_us > queue.start_us ? now_us - queue.start_us : 0;
  queue.thread = telemetry::TraceThreadSlot();
  req.trace->Record(queue);
}

std::vector<StageTiming> NetServer::Impl::StageTimingsFor(
    const PendingRequest& req) const {
  std::vector<StageTiming> stages;
  if (req.trace == nullptr) return stages;
  constexpr TimingStage kStages[] = {
      TimingStage::kQueue, TimingStage::kEncode, TimingStage::kCandidates,
      TimingStage::kCompare, TimingStage::kInsert, TimingStage::kJournal};
  constexpr size_t kNumStages = sizeof(kStages) / sizeof(kStages[0]);
  uint64_t sums[kNumStages] = {};
  for (const telemetry::Span& span : req.trace->Spans()) {
    const std::string_view name = span.name;
    for (size_t s = 0; s < kNumStages; ++s) {
      if (name == TimingStageName(kStages[s])) {
        sums[s] += span.dur_us;
        break;
      }
    }
  }
  stages.reserve(kNumStages + 1);
  for (size_t s = 0; s < kNumStages; ++s) {
    stages.push_back(StageTiming{
        kStages[s],
        static_cast<uint32_t>(std::min<uint64_t>(sums[s], UINT32_MAX))});
  }
  const int64_t total_us =
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            req.admitted_at)
          .count();
  stages.push_back(StageTiming{
      TimingStage::kTotal,
      static_cast<uint32_t>(std::min<int64_t>(
          std::max<int64_t>(total_us, 0), UINT32_MAX))});
  return stages;
}

void NetServer::Impl::FinishRequest(const PendingRequest& req) {
  t_requests->Add(1);
  finished_total.fetch_add(1, std::memory_order_relaxed);
  const uint64_t latency_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - req.admitted_at)
          .count());
  t_latency->Record(latency_us);
  if (req.trace != nullptr) {
    // Close the root span (admission -> response bytes buffered) and
    // let the sink's sampling + slow-capture policy decide whether the
    // tree survives.
    telemetry::Span root;
    root.name = "request";
    root.span_id = req.trace->root_span_id();
    root.parent_span_id = req.trace_parent;
    root.start_us = TraceMicrosAt(req.admitted_at);
    root.dur_us = latency_us;
    root.thread = telemetry::TraceThreadSlot();
    req.trace->Record(root);
    options.trace_sink->Finish(*req.trace, latency_us);
  }
}

void NetServer::Impl::ExecuteBatch(const std::vector<PendingRequest>& batch,
                                   std::string* out, bool* close_after) {
  std::vector<Response> responses(batch.size());
  size_t begin = 0;
  while (begin < batch.size()) {
    // A run of consecutive matches shares the service pool: a match
    // writes nothing, so its neighbours cannot observe its order.  Any
    // other request is a run of one, answered inline in request order.
    size_t end = begin + 1;
    while (end < batch.size() && batch[begin].op == Op::kMatch &&
           batch[end].op == Op::kMatch) {
      ++end;
    }
    ParallelForOrInline(
        service->pool(), end - begin, 1,
        [&](size_t /*chunk*/, size_t first, size_t last) {
          for (size_t k = begin + first; k < begin + last; ++k) {
            const PendingRequest& req = batch[k];
            if (req.deadline.Expired()) {
              // Dequeue-time deadline check: the budget may have lapsed
              // while the request sat behind others in the queue.
              // Answering is cheap; executing would burn worker time on
              // an answer nobody is waiting for.
              t_deadline_shed->Add(1);
              responses[k].status =
                  Status::DeadlineExceeded("deadline expired in queue");
            } else {
              StartRequestTrace(req);
              responses[k] = Execute(Decode(req), req.trace.get());
            }
          }
        });
    for (size_t k = begin; k < end; ++k) {
      Render(batch[k], responses[k], out, close_after);
      FinishRequest(batch[k]);
    }
    begin = end;
  }
}

Request NetServer::Impl::Decode(const PendingRequest& req) {
  Request request;
  request.op = req.op;
  if (Spec(req.op).work == Work::kWrite && options.read_only) {
    request.status = Status::FailedPrecondition("replica is read-only");
    return request;
  }
  switch (req.op) {
    case Op::kMatch:
    case Op::kMatchAndInsert:
    case Op::kInsert:
    case Op::kUpdate: {
      if (req.is_http) {
        request.status = ParseJsonRecord(req.http.body, &request.record);
      } else {
        size_t consumed = 0;
        request.status =
            WireDecodeRecord(req.frame.payload, &request.record, &consumed);
        if (request.status.ok() && consumed != req.frame.payload.size()) {
          request.status =
              Status::InvalidArgument("trailing bytes after record");
        }
      }
      if (!request.status.ok()) {
        // A malformed record over the wire is the network-mode analogue
        // of a malformed CSV row: account it where dashboards already
        // look.
        service->RecordSkippedRows(1);
      } else if (req.is_http && req.op == Op::kUpdate) {
        // PUT /records/{id}: the target names the record; a body id, if
        // any, must agree.
        if (request.record.id != 0 && request.record.id != req.target_id) {
          request.status = Status::InvalidArgument(StrFormat(
              "body id %llu does not match target id %llu",
              static_cast<unsigned long long>(request.record.id),
              static_cast<unsigned long long>(req.target_id)));
        }
        request.record.id = req.target_id;
      }
      break;
    }
    case Op::kDelete:
      if (req.is_http) {
        request.id = req.target_id;
      } else {
        request.status = DecodeDeletePayload(req.frame.payload, &request.id);
      }
      break;
    case Op::kFetchJournal:
      request.journal = service->journal();
      if (request.journal == nullptr) {
        request.status = Status::FailedPrecondition("no journal attached");
      } else {
        request.status = DecodeJournalFetch(
            req.frame.payload, &request.journal_epoch, &request.journal_offset);
      }
      break;
    case Op::kNotFound:
      if (!req.is_http) {
        request.status = Status::InvalidArgument(
            StrFormat("unknown message type %u",
                      static_cast<unsigned>(req.frame.type)));
      } else if (KnownHttpMethod(req.http.method)) {
        request.status = Status::NotFound(
            StrFormat("no such path: %s", req.http.target.c_str()));
      } else {
        request.status = Status::InvalidArgument(
            StrFormat("unsupported method: %s", req.http.method.c_str()));
      }
      break;
    default:
      break;
  }
  return request;
}

Response NetServer::Impl::Execute(const Request& request,
                                  telemetry::TraceCollector* trace) {
  telemetry::ScopedTraceContext scope(trace,
                                      trace ? trace->root_span_id() : 0);
  Response response;
  response.status = request.status;
  if (!response.status.ok()) return response;
  switch (request.op) {
    case Op::kPing:
      break;
    case Op::kMatch:
      response.status = service->Match(request.record, &response.pairs);
      break;
    case Op::kMatchAndInsert:
      response.status =
          service->MatchAndInsert(request.record, &response.pairs);
      break;
    case Op::kInsert:
      response.status = service->Insert(request.record);
      break;
    case Op::kDelete:
      response.status = service->Delete(request.id);
      break;
    case Op::kUpdate:
      response.status = service->Update(request.record);
      break;
    case Op::kFetchSnapshot: {
      std::ostringstream snapshot;
      response.status = service->SaveSnapshot(snapshot);
      response.body = std::move(snapshot).str();
      break;
    }
    case Op::kFetchJournal: {
      Journal& journal = *request.journal;
      if (request.journal_epoch != journal.epoch()) {
        // Rotation happened since the follower's cursor: answer with
        // the current epoch and no frames, which tells it to re-sync
        // from a snapshot.
        EncodeJournalData(journal.epoch(), journal.EndOffset(), {},
                          &response.body);
        break;
      }
      std::string frames;
      uint64_t end_offset = 0, epoch = 0;
      response.status = journal.ReadSegment(request.journal_offset,
                                            kJournalSegmentBytes, &frames,
                                            &end_offset, &epoch);
      if (response.status.ok()) {
        EncodeJournalData(epoch, end_offset, frames, &response.body);
      }
      break;
    }
    case Op::kStats:
      service->FillTelemetry();
      response.body = telemetry::ToJson(telemetry::Registry::Global());
      break;
    case Op::kHealthz:
      response.body = "ok\n";
      break;
    case Op::kReadyz:
      // Liveness vs readiness: a draining server is alive (healthz 200)
      // but must be taken out of rotation (readyz 503).
      if (draining.load(std::memory_order_acquire)) {
        response.http_code = 503;
        response.body = "draining\n";
      } else {
        response.body = "ok\n";
      }
      break;
    case Op::kMetrics:
      service->FillTelemetry();
      response.body =
          telemetry::ToPrometheusText(telemetry::Registry::Global());
      break;
    case Op::kTracez:
      if (options.trace_sink == nullptr) {
        response.status = Status::NotFound("tracing disabled (no trace sink)");
      } else {
        response.body = options.trace_sink->ToTracezJson();
      }
      break;
    case Op::kNotFound:
      break;  // Decode answered it
  }
  return response;
}

void NetServer::Impl::Render(const PendingRequest& req,
                             const Response& response, std::string* out,
                             bool* close_after) {
  if (req.is_http) {
    RenderHttp(req, response, out, close_after);
  } else {
    RenderBinary(req, response, out);
  }
}

void NetServer::Impl::RenderBinary(const PendingRequest& req,
                                   const Response& response,
                                   std::string* out) {
  if (req.trace != nullptr && req.client_traced) {
    // The timing frame needs the request's stage spans, which is why
    // rendering waits until the op has run.
    std::string timing;
    EncodeServerTimingPayload(req.trace->trace_id(), StageTimingsFor(req),
                              &timing);
    EncodeFrame(MsgType::kServerTiming, timing, out);
  }
  MsgType type = Spec(req.op).reply;
  std::string encoded;
  std::string_view payload = response.body;
  if (!response.status.ok()) {
    type = MsgType::kError;
    EncodeErrorPayload(response.status, response.retry_after_ms, &encoded);
    payload = encoded;
  } else if (type == MsgType::kMatchResult) {
    EncodePairs(response.pairs, &encoded);
    payload = encoded;
  }
  EncodeFrame(type, payload, out);
}

void NetServer::Impl::RenderHttp(const PendingRequest& req,
                                 const Response& response, std::string* out,
                                 bool* close_after) {
  if (!req.http.keep_alive) *close_after = true;
  HttpResponseExtras extras;
  if (req.trace != nullptr) {
    extras.server_timing = ServerTimingHeaderValue(StageTimingsFor(req));
    extras.trace_id = TraceIdHex(req.trace->trace_id());
  }
  const OpSpec& spec = Spec(req.op);
  int code = response.http_code;
  std::string_view content_type = spec.content_type;
  std::string json;
  std::string_view body = response.body;
  if (!response.status.ok()) {
    code = HttpCodeFor(response.status);
    content_type = kJson;
    json = StatusToJson(response.status);
    body = json;
  } else if (spec.work != Work::kNone) {
    json = PairsToJson(response.pairs);
    body = json;
  }
  out->append(HttpResponse(
      code, content_type, body, req.http.keep_alive,
      static_cast<int>((response.retry_after_ms + 999) / 1000), extras));
}

// --- drain ----------------------------------------------------------------

void NetServer::Impl::NoteQueueDrained() {
  if (!draining.load(std::memory_order_acquire)) return;
  if (queued.load(std::memory_order_relaxed) != 0) return;
  // Empty critical section: pairs with the wait in DrainAll so the
  // notify cannot slip between its predicate check and its sleep.
  { std::lock_guard<std::mutex> lock(drain_mu); }
  drain_cv.notify_all();
}

bool NetServer::Impl::DrainAll(int deadline_ms) {
  const Deadline deadline = Deadline::AfterMs(std::max(0, deadline_ms));
  draining.store(true, std::memory_order_release);
  // Stop accepting.  epoll_ctl is thread-safe against the IO thread's
  // epoll_wait; the listener stays open (so the port stays reserved)
  // but readiness events for it stop.
  ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
  bool drained;
  {
    std::unique_lock<std::mutex> lock(drain_mu);
    drained = drain_cv.wait_for(
        lock, std::chrono::milliseconds(deadline.RemainingMs()),
        [this] { return queued.load(std::memory_order_relaxed) == 0; });
  }
  if (!drained) return false;
  // The workers are done; give the IO thread a moment to flush the last
  // response bytes to the sockets (bounded by what's left of the
  // deadline — inserts are already journaled either way).
  Wake();
  const int64_t flush_ms = std::min<int64_t>(100, deadline.RemainingMs());
  if (flush_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(flush_ms));
  }
  return true;
}

// --- NetServer ------------------------------------------------------------

NetServer::NetServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

NetServer::~NetServer() { Shutdown(); }

Result<std::unique_ptr<NetServer>> NetServer::Start(LinkageService* service,
                                                    NetServerOptions options) {
  if (service == nullptr)
    return Status::InvalidArgument("NetServer needs a service");
  if (options.max_queue == 0)
    return Status::InvalidArgument("max_queue must be > 0");
  auto impl = std::make_unique<Impl>();
  impl->service = service;
  impl->options = std::move(options);
  CBVLINK_RETURN_NOT_OK(impl->Bind());
  impl->StartThreads();
  return std::unique_ptr<NetServer>(new NetServer(std::move(impl)));
}

void NetServer::Shutdown() {
  if (impl_ != nullptr) impl_->ShutdownAll();
}

bool NetServer::Drain(int deadline_ms) { return impl_->DrainAll(deadline_ms); }

bool NetServer::draining() const {
  return impl_->draining.load(std::memory_order_acquire);
}

uint16_t NetServer::port() const { return impl_->bound_port; }

const NetServerOptions& NetServer::options() const { return impl_->options; }

}  // namespace net
}  // namespace cbvlink
