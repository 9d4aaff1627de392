// Request-scoped tracing: who spent the microseconds, per request.
//
// The metrics registry (src/telemetry/metrics.h) answers "how is the
// fleet doing" with aggregate histograms; this module answers "where
// did THIS query go" with a span tree that mirrors the paper's
// pipeline stages: embedding (encode) -> HB blocking (candidates) ->
// cBV Hamming verification (compare) -> journal append/fsync.  A trace
// is identified by a 64-bit id that travels on the wire (kTraceContext
// frame / X-Trace-Id header, src/net/protocol.h) so the client, the
// server, and a replica all stamp spans into the same tree.
//
// Hot-path contract, same spirit as the metrics registry: starting and
// finishing a span never takes a lock.  Each traced request owns a
// TraceCollector with a fixed inline span arena; recording claims a
// slot with one relaxed fetch_add and writes the span into memory no
// other thread touches.  Untraced requests pay one thread-local read
// and a predictable branch per span site — tracing is off by default
// and must stay invisible in untraced serving numbers.
//
// Threading: the current collector is installed per thread
// (ScopedTraceContext), so batch stages running on pool threads record
// into the request's collector concurrently and race-free (slot
// claiming).  Reading the spans back (TraceCollector::Spans) is only
// defined after the writers are done — in practice after ParallelFor's
// completion latch or the worker's response write, both of which
// already order the writes.

#ifndef CBVLINK_TELEMETRY_TRACE_H_
#define CBVLINK_TELEMETRY_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace cbvlink {
namespace telemetry {

/// Spans a single trace can hold; later spans are counted as dropped.
/// A serving request produces ~6 (request, queue, encode, candidates,
/// compare, journal), batch requests a handful more.
inline constexpr size_t kMaxSpansPerTrace = 48;

/// Key/value annotations a span can carry (candidate counts, bytes
/// fsynced, ...).  Keys must be string literals.
inline constexpr size_t kMaxSpanAnnotations = 4;

/// Microseconds on the process-wide monotonic clock (steady_clock,
/// zeroed at first use).  All span timestamps share this epoch, so
/// spans recorded on different threads line up in one timeline.
uint64_t TraceNowMicros();

/// Mixes `seed` into a well-distributed non-zero 64-bit id
/// (splitmix64).  Deterministic: same seed, same id — tests and the
/// head sampler rely on that.
uint64_t MixTraceId(uint64_t seed);

/// Generates a fresh process-unique non-zero trace id (monotonic
/// counter + boot entropy through MixTraceId).
uint64_t GenerateTraceId();

/// One key/value annotation.  `key` must outlive the sink (string
/// literal); values are unsigned 64-bit by design — counts, bytes,
/// microseconds.
struct SpanAnnotation {
  const char* key = "";
  uint64_t value = 0;
};

/// One completed span.  Plain data, copied around freely.
struct Span {
  const char* name = "";  ///< Static string: "queue", "candidates", ...
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  ///< 0 = root.
  uint64_t start_us = 0;        ///< TraceNowMicros() at start.
  uint64_t dur_us = 0;
  uint32_t thread = 0;  ///< Recording thread's small stable slot.
  uint32_t n_annotations = 0;
  std::array<SpanAnnotation, kMaxSpanAnnotations> annotations{};
};

/// Per-request span arena.  Record() is wait-free: one relaxed
/// fetch_add claims a slot, the span is written in place; when the
/// arena is full the span is dropped and counted.  Span ids are
/// allocated from a per-collector counter; id 1 is reserved for the
/// root span (root_span_id()).
class TraceCollector {
 public:
  explicit TraceCollector(uint64_t trace_id) : trace_id_(trace_id) {}
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  uint64_t trace_id() const { return trace_id_; }

  /// The reserved id of the request's root span (callers record the
  /// root themselves, with this id, when the request finishes).
  uint64_t root_span_id() const { return 1; }

  /// Claims a fresh span id (2, 3, ...).
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends a completed span; trace_id is stamped here.  Thread-safe,
  /// wait-free; drops (and counts) when the arena is full.
  void Record(const Span& span);

  /// Spans dropped because the arena was full.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Copies the recorded spans out, ordered by start time.  Call only
  /// after every recording thread is done with this collector (the
  /// batch paths' completion latches provide that ordering).
  std::vector<Span> Spans() const;

 private:
  const uint64_t trace_id_;
  std::atomic<uint64_t> next_span_id_{2};
  std::atomic<uint32_t> count_{0};
  std::atomic<uint64_t> dropped_{0};
  std::array<Span, kMaxSpansPerTrace> spans_{};
};

/// The thread's current trace: which collector new spans go to and
/// which span is their parent.  Null collector = this thread is not
/// tracing (the common case; TraceSpan is then a no-op).
struct TraceContext {
  TraceCollector* collector = nullptr;
  uint64_t parent_span_id = 0;
};

/// The calling thread's trace context (thread_local).
TraceContext& CurrentTraceContext();

/// Installs `collector` as the thread's current trace for the scope —
/// the bridge that carries a request's trace onto a worker or pool
/// thread.  Restores the previous context on destruction, so nesting
/// (a traced request calling a traced batch) composes.
class ScopedTraceContext {
 public:
  ScopedTraceContext(TraceCollector* collector, uint64_t parent_span_id);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// A RAII stage span.  Construction reads the thread's context; when
/// no collector is installed every method is a cheap no-op, which is
/// what keeps disabled tracing free.  While alive it is the parent of
/// any span opened on the same thread.  `name` must be a string
/// literal.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True when this span is actually recording.
  bool active() const { return collector_ != nullptr; }

  /// Ends the span now (records it immediately; the destructor becomes
  /// a no-op).  For stages whose end doesn't align with a C++ scope.
  void End();

  /// Attaches a key/value annotation (no-op when inactive or full).
  void Annotate(const char* key, uint64_t value);

  uint64_t span_id() const { return span_.span_id; }

 private:
  TraceCollector* collector_ = nullptr;
  uint64_t saved_parent_ = 0;
  Span span_;
};

/// The recording thread's small stable slot (same striping idea as the
/// metrics cells) — lets a trace show which threads ran which stages.
uint32_t TraceThreadSlot();

}  // namespace telemetry
}  // namespace cbvlink

#endif  // CBVLINK_TELEMETRY_TRACE_H_
