// Wire protocol of the network serving tier (src/net/server.h): a
// length-prefixed, CRC32C-framed binary protocol plus a minimal
// HTTP/1.1 JSON mapping, both speaking to the same LinkageService
// operations.
//
// Binary connections open with the 4-byte preamble "CBVP" (how the
// server tells them apart from HTTP, whose first bytes are an ASCII
// method).  After the preamble, both directions exchange frames:
//
//   u32 payload_len   u8 type   payload   u32 crc32c(type + payload)
//
// CRC framing reuses src/common/crc32 exactly like the v2 snapshot wire
// format, so a bit flip anywhere in a frame is detected before the
// payload is trusted; payload_len is capped so a corrupt length can
// never demand an unbounded allocation.
//
// The HTTP mapping serves the same operations for curl-ability:
//   GET    /healthz            -> 200 "ok"
//   GET    /readyz             -> 200 "ok", 503 "draining"
//   GET    /metrics            -> Prometheus text exposition
//   GET    /stats              -> telemetry JSON
//   GET    /tracez             -> captured trace trees (404 untraced)
//   POST   /match              -> {"pairs": [[a_id, b_id], ...]}
//   POST   /insert             -> {"pairs": []}
//   POST   /match_and_insert   -> {"pairs": [[a_id, b_id], ...]}
//   DELETE /records/{id}       -> {"pairs": []}
//   PUT    /records/{id}       -> {"pairs": []}
// POST/PUT bodies are {"id": N, "fields": ["F1", "F2", ...]} (a PUT
// body's id must match the target id when present); a shed request
// answers 429, a malformed one 400, a read-only replica 403, a
// delete/update of an unknown id 404 (src/net/status_map.h is the one
// table those codes come from).

#ifndef CBVLINK_NET_PROTOCOL_H_
#define CBVLINK_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/record.h"
#include "src/common/status.h"

namespace cbvlink {
namespace net {

/// The binary-mode connection preamble.
inline constexpr char kBinaryPreamble[4] = {'C', 'B', 'V', 'P'};

/// Hard cap on one frame's payload (snapshot transfers are the largest
/// legitimate frames).
inline constexpr uint32_t kMaxFramePayload = 256u << 20;

/// Frame types.  Requests are < 64, responses >= 64.
enum class MsgType : uint8_t {
  kPing = 1,
  kMatch = 2,           ///< payload: WireEncodeRecord
  kMatchAndInsert = 3,  ///< payload: WireEncodeRecord
  kInsert = 4,          ///< payload: WireEncodeRecord
  kFetchSnapshot = 5,   ///< empty payload
  kFetchJournal = 6,    ///< payload: u64 epoch, u64 offset
  kStats = 7,           ///< empty payload
  /// Deadline prefix: payload u32 budget_ms.  Arms a deadline for the
  /// *next* request frame on the connection (send kDeadline, then the
  /// request).  Not a request itself — it gets no reply and does not
  /// count against the admission queue.  Prefixing (rather than a field
  /// in every request frame) keeps all existing payload codecs and
  /// pipelined-batch folding unchanged.
  kDeadline = 8,
  /// Trace-context prefix: payload u64 trace_id, u64 parent_span_id.
  /// Arms tracing for the *next* request frame on the connection, same
  /// prefixing discipline as kDeadline: no reply, no queue slot, all
  /// request payload codecs unchanged.  A server with tracing enabled
  /// adopts the carried ids as the request's trace root, so client and
  /// server spans join one tree; it also entitles the request to a
  /// kServerTiming annotation frame ahead of its response.
  kTraceContext = 9,
  kDelete = 10,  ///< payload: u64 record id
  kUpdate = 11,  ///< payload: WireEncodeRecord (full replacement)

  kPong = 65,
  kMatchResult = 66,    ///< payload: u32 n, n * (u64 a_id, u64 b_id)
  kInserted = 67,       ///< empty payload
  kError = 68,          ///< payload: u32 status code, u32 len, message
  kSnapshotData = 69,   ///< payload: a complete CBVS snapshot stream
  kJournalData = 70,    ///< payload: u64 epoch, u64 end_offset, raw frames
  kStatsJson = 71,      ///< payload: telemetry JSON text
  /// Server-timing annotation: sent immediately BEFORE the response
  /// frame of a request that carried kTraceContext (the response-side
  /// mirror of the request-side prefix discipline).  Payload: u64
  /// trace_id, u32 n, n * (u8 stage, u32 dur_us).  Peers that never
  /// send kTraceContext never receive it, so old clients are unaffected.
  kServerTiming = 72,
  kDeleted = 73,  ///< empty payload
  kUpdated = 74,  ///< empty payload
};

/// Stages a kServerTiming annotation (or Server-Timing header) reports,
/// mirroring the paper's pipeline: queue wait, embedding, HB candidate
/// generation, cBV Hamming comparison, index insertion (insert paths
/// only), journal append+fsync, and the server-side end-to-end total.
enum class TimingStage : uint8_t {
  kQueue = 0,
  kEncode = 1,
  kCandidates = 2,
  kCompare = 3,
  kInsert = 4,
  kJournal = 5,
  kTotal = 6,
};

/// Stable lowercase token for a stage ("queue", "encode", ...), used in
/// the Server-Timing header and client-side printing.
const char* TimingStageName(TimingStage stage);

/// One per-stage duration.
struct StageTiming {
  TimingStage stage = TimingStage::kTotal;
  uint32_t dur_us = 0;
};

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kPing;
  std::string payload;
};

/// Appends one encoded frame to `*out`.
void EncodeFrame(MsgType type, std::string_view payload, std::string* out);

/// Incremental frame decoder for a byte stream.  Corruption (bad CRC,
/// over-cap length) is terminal: the connection should be dropped.
class FrameDecoder {
 public:
  enum class Next { kFrame, kNeedMore, kCorrupt };

  void Feed(std::string_view bytes);
  Next Pop(Frame* frame);

  const Status& error() const { return error_; }
  size_t buffered_bytes() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  size_t pos_ = 0;
  Status error_;
};

// --- Frame payload codecs -------------------------------------------------

void EncodePairs(const std::vector<IdPair>& pairs, std::string* out);
Status DecodePairs(std::string_view payload, std::vector<IdPair>* out);

/// kError payload <-> Status (the code survives the round trip, so a
/// client can distinguish shed RESOURCE_EXHAUSTED from hard failures).
/// The payload optionally carries a trailing u32 retry_after_ms hint
/// (the binary analogue of HTTP Retry-After, derived from the server's
/// observed queue drain rate); encoders omit it when it is 0 and
/// decoders accept both shapes, so old and new peers interoperate.
void EncodeErrorPayload(const Status& status, std::string* out);
void EncodeErrorPayload(const Status& status, uint32_t retry_after_ms,
                        std::string* out);
Status DecodeErrorPayload(std::string_view payload, Status* out);
Status DecodeErrorPayload(std::string_view payload, Status* out,
                          uint32_t* retry_after_ms);

/// kDeadline payload <-> relative budget in milliseconds.
void EncodeDeadlinePayload(uint32_t budget_ms, std::string* out);
Status DecodeDeadlinePayload(std::string_view payload, uint32_t* budget_ms);

/// kTraceContext payload <-> (trace_id, parent_span_id).  A zero
/// trace_id is rejected on decode (0 means "untraced" everywhere).
void EncodeTraceContextPayload(uint64_t trace_id, uint64_t parent_span_id,
                               std::string* out);
Status DecodeTraceContextPayload(std::string_view payload, uint64_t* trace_id,
                                 uint64_t* parent_span_id);

/// kServerTiming payload <-> (trace_id, per-stage durations).
void EncodeServerTimingPayload(uint64_t trace_id,
                               const std::vector<StageTiming>& stages,
                               std::string* out);
Status DecodeServerTimingPayload(std::string_view payload, uint64_t* trace_id,
                                 std::vector<StageTiming>* stages);

/// Renders stages as a Server-Timing header value:
/// "queue;dur=0.123, match;dur=4.5" (dur in fractional milliseconds,
/// per the header's spec).
std::string ServerTimingHeaderValue(const std::vector<StageTiming>& stages);

/// Parses a Server-Timing header value produced by
/// ServerTimingHeaderValue (unknown stage tokens are skipped).
std::vector<StageTiming> ParseServerTimingHeaderValue(std::string_view value);

/// kDelete payload <-> the record id to tombstone.
void EncodeDeletePayload(RecordId id, std::string* out);
Status DecodeDeletePayload(std::string_view payload, RecordId* id);

void EncodeJournalFetch(uint64_t epoch, uint64_t offset, std::string* out);
Status DecodeJournalFetch(std::string_view payload, uint64_t* epoch,
                          uint64_t* offset);

void EncodeJournalData(uint64_t epoch, uint64_t end_offset,
                       std::string_view frames, std::string* out);
Status DecodeJournalData(std::string_view payload, uint64_t* epoch,
                         uint64_t* end_offset, std::string* frames);

// --- HTTP/JSON mapping ----------------------------------------------------

/// One parsed HTTP request (the subset the server speaks: no chunked
/// bodies, no continuation lines).
struct HttpRequest {
  std::string method;
  std::string target;
  bool keep_alive = true;
  /// From the `X-Deadline-Ms` header: the caller's remaining budget in
  /// milliseconds, re-anchored server-side against steady_clock at
  /// parse time.  -1 when the header is absent (no caller deadline).
  int64_t deadline_ms = -1;
  /// From the `X-Trace-Id` header (16 hex digits): the caller's trace
  /// id, 0 when absent or unparsable (0 = untraced everywhere).
  uint64_t trace_id = 0;
  /// From the `X-Trace-Parent` header: the caller's span the server's
  /// root span hangs under; 0 when absent.
  uint64_t trace_parent = 0;
  std::string body;
};

/// Incremental HTTP/1.1 request parser.  kBad is terminal (respond 400
/// and close).
class HttpParser {
 public:
  enum class Next { kRequest, kNeedMore, kBad };

  void Feed(std::string_view bytes);
  Next Pop(HttpRequest* request);

  const Status& error() const { return error_; }
  /// Bytes of a not-yet-complete request sitting in the buffer (the
  /// server's slow-loris progress check keys off this going nonzero).
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
  Status error_;
};

/// Extra response headers a traced request earns; both strings may be
/// empty (header omitted).
struct HttpResponseExtras {
  /// `Server-Timing:` value (see ServerTimingHeaderValue).
  std::string server_timing;
  /// `X-Trace-Id:` value (16 hex digits) echoing the request's trace.
  std::string trace_id;
};

/// Renders a complete HTTP/1.1 response.  `retry_after_s` is the
/// Retry-After hint the server computes from its queue drain rate (for
/// any code; 0 suppresses the header except on 429, which always
/// advertises at least 1s).
std::string HttpResponse(int code, std::string_view content_type,
                         std::string_view body, bool keep_alive,
                         int retry_after_s = 0,
                         const HttpResponseExtras& extras = {});

/// 16-lowercase-hex-digit rendering of a trace id (the X-Trace-Id wire
/// form) and its inverse; ParseTraceIdHex returns 0 on any malformed
/// input.
std::string TraceIdHex(uint64_t trace_id);
uint64_t ParseTraceIdHex(std::string_view hex);

/// Parses the leading decimal digits of `text` as a u64, setting
/// `*consumed` to their count.  InvalidArgument when `text` starts with
/// no digit or the value exceeds UINT64_MAX (checked before each step,
/// so no wrap goes unseen).
Status ParseDecimalU64(std::string_view text, uint64_t* out,
                       size_t* consumed);

/// Parses {"id": N, "fields": ["A", ...]} (keys in any order, "id"
/// optional).  Strict: unknown keys or non-string fields are
/// InvalidArgument.
Status ParseJsonRecord(std::string_view json, Record* out);

/// {"pairs": [[a_id, b_id], ...]}
std::string PairsToJson(const std::vector<IdPair>& pairs);

/// {"error": {"code": "...", "message": "..."}}
std::string StatusToJson(const Status& status);

// Status <-> HTTP/binary wire codes live in src/net/status_map.h (one
// table shared by every handler and both clients).

}  // namespace net
}  // namespace cbvlink

#endif  // CBVLINK_NET_PROTOCOL_H_
