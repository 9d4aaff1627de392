// The network serving tier: a small epoll-based non-blocking server in
// front of a LinkageService, speaking both the CRC-framed binary
// protocol and the HTTP/JSON mapping of src/net/protocol.h on the same
// port (told apart by the "CBVP" connection preamble).
//
// Threading model: ONE IO thread owns the listener, the epoll set and
// every socket read/write; a pool of worker threads executes the
// service calls.  Parsed requests land in a per-connection queue and a
// connection is handed to at most one worker at a time, so responses
// leave in request order without any per-request sequencing machinery.
// Workers never touch file descriptors — they append to the
// connection's write buffer and nudge the IO thread over an eventfd.
//
// Admission control: the server tracks the total number of admitted,
// not-yet-answered requests.  A request parsed while that count is at
// `max_queue` is shed immediately from the IO thread — HTTP 429 with
// Retry-After, or a kError frame carrying ResourceExhausted — without
// ever reaching the workers, so overload degrades into cheap rejections
// instead of latency collapse or unbounded memory.  Connections idle
// past `idle_timeout_ms` (no bytes read or written) are closed by a
// periodic sweep, bounding the cost of dead peers.
//
// One request path: admission classifies every request, from either
// protocol, as one op of a single op table (frame type, or HTTP method
// and target).  A worker decodes its payload, runs it through the one
// switch that calls the service, and hands the protocol-neutral response
// to a binary or an HTTP renderer; shed, deadline and error replies take
// the same two renderers.
//
// Pipelined matches: a run of consecutive match requests on one
// connection (binary kMatch frames or pipelined HTTP POST /match) is
// answered on the service thread pool, each request through the same
// decode -> execute -> render path as any other, so each reply equals a
// sequential Match's and each traced request records its own stage
// spans.  Replies leave in request order; a run of one stays on the
// worker.

#ifndef CBVLINK_NET_SERVER_H_
#define CBVLINK_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/status.h"

namespace cbvlink {

class LinkageService;

namespace telemetry {
class TraceSink;
}  // namespace telemetry

namespace net {

struct NetServerOptions {
  /// IPv4 address to bind ("0.0.0.0" for all interfaces).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Worker threads executing service calls; 0 = hardware concurrency.
  size_t num_workers = 0;
  /// Admitted-but-unanswered request cap; requests beyond it are shed
  /// with 429 / ResourceExhausted.
  size_t max_queue = 256;
  /// Accepted-connection cap; excess accepts are closed immediately.
  size_t max_connections = 1024;
  /// A connection with no socket activity for this long is closed.
  /// 0 disables the sweep.
  int idle_timeout_ms = 60000;
  /// Slow-loris guard: once the first byte of a request has arrived,
  /// the rest must follow within this window or the connection is
  /// reaped — a peer trickling one header byte per idle-timeout can
  /// otherwise hold a connection forever (each byte resets the idle
  /// clock, but not this one).  0 disables the check.
  int request_progress_timeout_ms = 10000;
  /// Read-only mode (warm standby): insert, match_and_insert, delete
  /// and update answer FailedPrecondition / 403 on both protocols.
  bool read_only = false;
  /// Request tracing sink (src/telemetry/trace_sink.h).  Null disables
  /// tracing entirely — no collectors are allocated and the span sites
  /// stay on their no-op fast path, which is the default.  When set,
  /// every admitted request records a span tree (adopting the trace id
  /// carried by kTraceContext / X-Trace-Id, minting one otherwise), the
  /// sink's sampling policy decides which trees survive, GET /tracez
  /// serves the captured set, and traced requests earn a Server-Timing
  /// header / kServerTiming frame.  Borrowed: must outlive the server.
  telemetry::TraceSink* trace_sink = nullptr;
};

/// The server.  Start() binds, spawns the IO and worker threads and
/// returns; Shutdown() (or the destructor) stops them and closes every
/// connection.  `service` must outlive the server.
class NetServer {
 public:
  static Result<std::unique_ptr<NetServer>> Start(LinkageService* service,
                                                  NetServerOptions options = {});

  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Stops accepting, closes every connection, joins all threads.
  /// Idempotent.
  void Shutdown();

  /// Graceful drain, the first half of a clean SIGTERM exit: stops
  /// accepting new connections, flips /readyz to 503, sheds new *work*
  /// requests (match, insert, match_and_insert, delete, update — health
  /// probes, stats and snapshot/journal fetches still answer, so
  /// replicas keep converging through a failover), and waits up to
  /// `deadline_ms` for every already-admitted request to finish and
  /// flush.  Returns true when the queue fully drained within the
  /// deadline.  Call Shutdown() afterwards.  Idempotent.
  bool Drain(int deadline_ms);

  /// True once Drain() has started (readiness probes key off this).
  bool draining() const;

  /// The bound port (the resolved one when options.port was 0).
  uint16_t port() const;

  const NetServerOptions& options() const;

 private:
  struct Impl;
  explicit NetServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace cbvlink

#endif  // CBVLINK_NET_SERVER_H_
