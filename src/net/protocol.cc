#include "src/net/protocol.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "src/common/crc32.h"
#include "src/common/str.h"
#include "src/net/status_map.h"

namespace cbvlink {
namespace net {

namespace {

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>(static_cast<unsigned char>(v >> (8 * i))));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(static_cast<unsigned char>(v >> (8 * i))));
  }
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

/// Appends a JSON string literal (with the escapes the RFC requires).
void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

/// Tiny JSON scanner for the record-request shape.
class JsonScanner {
 public:
  explicit JsonScanner(std::string_view text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  char Peek() {
    SkipWs();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  /// Parses a JSON string literal into `*out`.
  Status String(std::string* out) {
    if (!Consume('"')) return Status::InvalidArgument("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (text_.size() - pos_ < 4) {
            return Status::InvalidArgument("truncated \\u escape");
          }
          uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<uint32_t>(h - 'A' + 10);
            else return Status::InvalidArgument("bad \\u escape digit");
          }
          // UTF-8 encode (BMP only; surrogates rejected).
          if (cp >= 0xd800 && cp <= 0xdfff) {
            return Status::InvalidArgument("surrogate \\u escape unsupported");
          }
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default:
          return Status::InvalidArgument("unknown string escape");
      }
    }
    return Status::InvalidArgument("unterminated string");
  }

  /// Parses a non-negative integer literal.
  Status U64(uint64_t* out) {
    SkipWs();
    size_t consumed = 0;
    CBVLINK_RETURN_NOT_OK(
        ParseDecimalU64(text_.substr(pos_), out, &consumed));
    pos_ += consumed;
    return Status::OK();
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

constexpr size_t kMaxHttpHeaderBytes = 16u << 10;
constexpr size_t kMaxHttpBodyBytes = 8u << 20;
// X-Deadline-Ms values saturate here (~12 days) so header arithmetic
// can never overflow a steady_clock time_point.
constexpr uint64_t kMaxDeadlineMs = 1u << 30;

/// Case-insensitive ASCII compare.
bool IEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

const char* HttpReason(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

}  // namespace

void EncodeFrame(MsgType type, std::string_view payload, std::string* out) {
  PutU32(static_cast<uint32_t>(payload.size()), out);
  out->push_back(static_cast<char>(static_cast<uint8_t>(type)));
  out->append(payload.data(), payload.size());
  uint32_t crc = kCrc32cInit;
  const char type_byte = static_cast<char>(static_cast<uint8_t>(type));
  crc = Crc32cExtend(crc, &type_byte, 1);
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  PutU32(crc, out);
}

void FrameDecoder::Feed(std::string_view bytes) {
  if (pos_ > (1u << 16) && pos_ > buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

FrameDecoder::Next FrameDecoder::Pop(Frame* frame) {
  if (!error_.ok()) return Next::kCorrupt;
  if (buffer_.size() - pos_ < 5) return Next::kNeedMore;
  const uint32_t payload_len = GetU32(buffer_.data() + pos_);
  if (payload_len > kMaxFramePayload) {
    error_ = Status::InvalidArgument(
        StrFormat("frame payload %u exceeds cap", payload_len));
    return Next::kCorrupt;
  }
  const size_t frame_len = 4 + 1 + static_cast<size_t>(payload_len) + 4;
  if (buffer_.size() - pos_ < frame_len) return Next::kNeedMore;
  const char* body = buffer_.data() + pos_ + 4;  // type + payload
  const uint32_t expected_crc =
      GetU32(buffer_.data() + pos_ + 4 + 1 + payload_len);
  if (Crc32c(body, 1 + payload_len) != expected_crc) {
    error_ = Status::InvalidArgument("frame CRC mismatch");
    return Next::kCorrupt;
  }
  frame->type = static_cast<MsgType>(static_cast<uint8_t>(body[0]));
  frame->payload.assign(body + 1, payload_len);
  pos_ += frame_len;
  return Next::kFrame;
}

void EncodePairs(const std::vector<IdPair>& pairs, std::string* out) {
  PutU32(static_cast<uint32_t>(pairs.size()), out);
  for (const IdPair& pair : pairs) {
    PutU64(pair.a_id, out);
    PutU64(pair.b_id, out);
  }
}

Status DecodePairs(std::string_view payload, std::vector<IdPair>* out) {
  if (payload.size() < 4) return Status::InvalidArgument("pairs truncated");
  const uint32_t n = GetU32(payload.data());
  if (payload.size() != 4 + static_cast<size_t>(n) * 16) {
    return Status::InvalidArgument("pairs length mismatch");
  }
  out->clear();
  out->reserve(n);
  const char* p = payload.data() + 4;
  for (uint32_t i = 0; i < n; ++i) {
    out->push_back({GetU64(p), GetU64(p + 8)});
    p += 16;
  }
  return Status::OK();
}

void EncodeErrorPayload(const Status& status, std::string* out) {
  EncodeErrorPayload(status, 0, out);
}

void EncodeErrorPayload(const Status& status, uint32_t retry_after_ms,
                        std::string* out) {
  PutU32(BinaryCodeFor(status), out);
  const std::string_view msg = status.message();
  PutU32(static_cast<uint32_t>(msg.size()), out);
  out->append(msg.data(), msg.size());
  if (retry_after_ms > 0) PutU32(retry_after_ms, out);
}

Status DecodeErrorPayload(std::string_view payload, Status* out) {
  return DecodeErrorPayload(payload, out, nullptr);
}

Status DecodeErrorPayload(std::string_view payload, Status* out,
                          uint32_t* retry_after_ms) {
  if (retry_after_ms != nullptr) *retry_after_ms = 0;
  if (payload.size() < 8) return Status::InvalidArgument("error truncated");
  const uint32_t code = GetU32(payload.data());
  const uint32_t len = GetU32(payload.data() + 4);
  const size_t base = 8 + static_cast<size_t>(len);
  if (payload.size() != base && payload.size() != base + 4) {
    return Status::InvalidArgument("error length mismatch");
  }
  if (payload.size() == base + 4 && retry_after_ms != nullptr) {
    *retry_after_ms = GetU32(payload.data() + base);
  }
  *out = Status(StatusFromBinaryCode(code), std::string(payload.substr(8, len)));
  return Status::OK();
}

void EncodeDeletePayload(RecordId id, std::string* out) { PutU64(id, out); }

Status DecodeDeletePayload(std::string_view payload, RecordId* id) {
  if (payload.size() != 8) {
    return Status::InvalidArgument("delete payload must be 8 bytes");
  }
  *id = GetU64(payload.data());
  return Status::OK();
}

void EncodeDeadlinePayload(uint32_t budget_ms, std::string* out) {
  PutU32(budget_ms, out);
}

Status DecodeDeadlinePayload(std::string_view payload, uint32_t* budget_ms) {
  if (payload.size() != 4) {
    return Status::InvalidArgument("deadline payload must be 4 bytes");
  }
  *budget_ms = GetU32(payload.data());
  return Status::OK();
}

void EncodeTraceContextPayload(uint64_t trace_id, uint64_t parent_span_id,
                               std::string* out) {
  PutU64(trace_id, out);
  PutU64(parent_span_id, out);
}

Status DecodeTraceContextPayload(std::string_view payload, uint64_t* trace_id,
                                 uint64_t* parent_span_id) {
  if (payload.size() != 16) {
    return Status::InvalidArgument("trace context payload must be 16 bytes");
  }
  *trace_id = GetU64(payload.data());
  *parent_span_id = GetU64(payload.data() + 8);
  if (*trace_id == 0) {
    return Status::InvalidArgument("trace id must be nonzero");
  }
  return Status::OK();
}

void EncodeServerTimingPayload(uint64_t trace_id,
                               const std::vector<StageTiming>& stages,
                               std::string* out) {
  PutU64(trace_id, out);
  PutU32(static_cast<uint32_t>(stages.size()), out);
  for (const StageTiming& timing : stages) {
    out->push_back(static_cast<char>(timing.stage));
    PutU32(timing.dur_us, out);
  }
}

Status DecodeServerTimingPayload(std::string_view payload, uint64_t* trace_id,
                                 std::vector<StageTiming>* stages) {
  if (payload.size() < 12) {
    return Status::InvalidArgument("server timing payload too short");
  }
  *trace_id = GetU64(payload.data());
  const uint32_t n = GetU32(payload.data() + 8);
  if (payload.size() != 12 + static_cast<size_t>(n) * 5) {
    return Status::InvalidArgument("server timing payload size mismatch");
  }
  stages->clear();
  stages->reserve(n);
  const char* p = payload.data() + 12;
  for (uint32_t i = 0; i < n; ++i, p += 5) {
    StageTiming timing;
    timing.stage = static_cast<TimingStage>(static_cast<uint8_t>(*p));
    timing.dur_us = GetU32(p + 1);
    stages->push_back(timing);
  }
  return Status::OK();
}

const char* TimingStageName(TimingStage stage) {
  switch (stage) {
    case TimingStage::kQueue:
      return "queue";
    case TimingStage::kEncode:
      return "encode";
    case TimingStage::kCandidates:
      return "candidates";
    case TimingStage::kCompare:
      return "compare";
    case TimingStage::kInsert:
      return "insert";
    case TimingStage::kJournal:
      return "journal";
    case TimingStage::kTotal:
      return "total";
  }
  return "unknown";
}

std::string ServerTimingHeaderValue(const std::vector<StageTiming>& stages) {
  std::string out;
  for (const StageTiming& timing : stages) {
    if (!out.empty()) out += ", ";
    // dur is fractional milliseconds per the Server-Timing spec.
    out += StrFormat("%s;dur=%.3f", TimingStageName(timing.stage),
                     static_cast<double>(timing.dur_us) / 1000.0);
  }
  return out;
}

std::vector<StageTiming> ParseServerTimingHeaderValue(std::string_view value) {
  std::vector<StageTiming> out;
  size_t pos = 0;
  while (pos < value.size()) {
    size_t comma = value.find(',', pos);
    if (comma == std::string_view::npos) comma = value.size();
    std::string_view item = value.substr(pos, comma - pos);
    pos = comma + 1;
    while (!item.empty() && item.front() == ' ') item.remove_prefix(1);
    const size_t semi = item.find(';');
    if (semi == std::string_view::npos) continue;
    const std::string_view name = item.substr(0, semi);
    const size_t dur = item.find("dur=", semi);
    if (dur == std::string_view::npos) continue;
    const double ms = std::atof(std::string(item.substr(dur + 4)).c_str());
    for (const TimingStage stage :
         {TimingStage::kQueue, TimingStage::kEncode, TimingStage::kCandidates,
          TimingStage::kCompare, TimingStage::kInsert, TimingStage::kJournal,
          TimingStage::kTotal}) {
      if (name == TimingStageName(stage)) {
        out.push_back(StageTiming{
            stage, static_cast<uint32_t>(ms * 1000.0 + 0.5)});
        break;
      }
    }
  }
  return out;
}

std::string TraceIdHex(uint64_t trace_id) {
  return StrFormat("%016llx", static_cast<unsigned long long>(trace_id));
}

uint64_t ParseTraceIdHex(std::string_view hex) {
  if (hex.empty() || hex.size() > 16) return 0;
  uint64_t value = 0;
  for (const char c : hex) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint64_t>(c - 'A') + 10;
    } else {
      return 0;
    }
    value = (value << 4) | digit;
  }
  return value;
}

void EncodeJournalFetch(uint64_t epoch, uint64_t offset, std::string* out) {
  PutU64(epoch, out);
  PutU64(offset, out);
}

Status DecodeJournalFetch(std::string_view payload, uint64_t* epoch,
                          uint64_t* offset) {
  if (payload.size() != 16) {
    return Status::InvalidArgument("journal fetch payload must be 16 bytes");
  }
  *epoch = GetU64(payload.data());
  *offset = GetU64(payload.data() + 8);
  return Status::OK();
}

void EncodeJournalData(uint64_t epoch, uint64_t end_offset,
                       std::string_view frames, std::string* out) {
  PutU64(epoch, out);
  PutU64(end_offset, out);
  out->append(frames.data(), frames.size());
}

Status DecodeJournalData(std::string_view payload, uint64_t* epoch,
                         uint64_t* end_offset, std::string* frames) {
  if (payload.size() < 16) {
    return Status::InvalidArgument("journal data truncated");
  }
  *epoch = GetU64(payload.data());
  *end_offset = GetU64(payload.data() + 8);
  frames->assign(payload.substr(16));
  return Status::OK();
}

void HttpParser::Feed(std::string_view bytes) {
  buffer_.append(bytes.data(), bytes.size());
}

HttpParser::Next HttpParser::Pop(HttpRequest* request) {
  if (!error_.ok()) return Next::kBad;
  const size_t header_end = buffer_.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    if (buffer_.size() > kMaxHttpHeaderBytes) {
      error_ = Status::InvalidArgument("HTTP header too large");
      return Next::kBad;
    }
    return Next::kNeedMore;
  }
  // The cap applies even when the terminator arrived in the same Feed
  // as the oversized header.
  if (header_end > kMaxHttpHeaderBytes) {
    error_ = Status::InvalidArgument("HTTP header too large");
    return Next::kBad;
  }
  const std::string_view head(buffer_.data(), header_end);

  // Request line: METHOD SP TARGET SP VERSION
  const size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    error_ = Status::InvalidArgument("malformed HTTP request line");
    return Next::kBad;
  }
  request->method = std::string(request_line.substr(0, sp1));
  request->target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  request->keep_alive = true;
  request->deadline_ms = -1;
  request->trace_id = 0;
  request->trace_parent = 0;

  size_t content_length = 0;
  size_t cursor = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (cursor < head.size()) {
    size_t eol = head.find("\r\n", cursor);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(cursor, eol - cursor);
    cursor = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string_view name = line.substr(0, colon);
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    if (IEquals(name, "content-length")) {
      if (value.empty()) {
        error_ = Status::InvalidArgument("bad Content-Length");
        return Next::kBad;
      }
      uint64_t n = 0;
      for (const char c : value) {
        if (c < '0' || c > '9') {
          error_ = Status::InvalidArgument("bad Content-Length");
          return Next::kBad;
        }
        n = n * 10 + static_cast<uint64_t>(c - '0');
        if (n > kMaxHttpBodyBytes) {
          error_ = Status::InvalidArgument("HTTP body too large");
          return Next::kBad;
        }
      }
      content_length = static_cast<size_t>(n);
    } else if (IEquals(name, "connection")) {
      if (IEquals(value, "close")) request->keep_alive = false;
    } else if (IEquals(name, "x-deadline-ms")) {
      uint64_t n = 0;
      if (value.empty()) {
        error_ = Status::InvalidArgument("bad X-Deadline-Ms");
        return Next::kBad;
      }
      for (const char c : value) {
        if (c < '0' || c > '9') {
          error_ = Status::InvalidArgument("bad X-Deadline-Ms");
          return Next::kBad;
        }
        n = n * 10 + static_cast<uint64_t>(c - '0');
        if (n > kMaxDeadlineMs) n = kMaxDeadlineMs;
      }
      request->deadline_ms = static_cast<int64_t>(n);
    } else if (IEquals(name, "x-trace-id")) {
      // Unparsable ids degrade to untraced rather than 400: tracing is
      // advisory and must never fail a request.
      request->trace_id = ParseTraceIdHex(value);
    } else if (IEquals(name, "x-trace-parent")) {
      request->trace_parent = ParseTraceIdHex(value);
    } else if (IEquals(name, "transfer-encoding")) {
      error_ = Status::InvalidArgument("chunked bodies unsupported");
      return Next::kBad;
    }
  }

  const size_t body_start = header_end + 4;
  if (buffer_.size() - body_start < content_length) return Next::kNeedMore;
  request->body.assign(buffer_, body_start, content_length);
  buffer_.erase(0, body_start + content_length);
  return Next::kRequest;
}

std::string HttpResponse(int code, std::string_view content_type,
                         std::string_view body, bool keep_alive,
                         int retry_after_s, const HttpResponseExtras& extras) {
  // A 429 always advertises a retry hint; other codes only when the
  // caller supplies one.
  if (code == 429 && retry_after_s < 1) retry_after_s = 1;
  std::string out = StrFormat("HTTP/1.1 %d %s\r\n", code, HttpReason(code));
  out += StrFormat("Content-Type: %.*s\r\n",
                   static_cast<int>(content_type.size()), content_type.data());
  out += StrFormat("Content-Length: %zu\r\n", body.size());
  if (retry_after_s > 0) out += StrFormat("Retry-After: %d\r\n", retry_after_s);
  if (!extras.server_timing.empty()) {
    out += StrFormat("Server-Timing: %s\r\n", extras.server_timing.c_str());
  }
  if (!extras.trace_id.empty()) {
    out += StrFormat("X-Trace-Id: %s\r\n", extras.trace_id.c_str());
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out.append(body.data(), body.size());
  return out;
}

Status ParseDecimalU64(std::string_view text, uint64_t* out,
                       size_t* consumed) {
  size_t pos = 0;
  uint64_t v = 0;
  for (; pos < text.size() && text[pos] >= '0' && text[pos] <= '9'; ++pos) {
    const uint64_t digit = static_cast<uint64_t>(text[pos] - '0');
    if (v > (UINT64_MAX - digit) / 10) {
      return Status::InvalidArgument("integer overflow");
    }
    v = v * 10 + digit;
  }
  if (pos == 0) return Status::InvalidArgument("expected integer");
  *out = v;
  *consumed = pos;
  return Status::OK();
}

Status ParseJsonRecord(std::string_view json, Record* out) {
  JsonScanner scanner(json);
  out->id = 0;
  out->fields.clear();
  if (!scanner.Consume('{')) {
    return Status::InvalidArgument("record body must be a JSON object");
  }
  bool first = true;
  while (!scanner.Consume('}')) {
    if (!first && !scanner.Consume(',')) {
      return Status::InvalidArgument("expected ',' between members");
    }
    first = false;
    std::string key;
    CBVLINK_RETURN_NOT_OK(scanner.String(&key));
    if (!scanner.Consume(':')) {
      return Status::InvalidArgument("expected ':' after key");
    }
    if (key == "id") {
      CBVLINK_RETURN_NOT_OK(scanner.U64(&out->id));
    } else if (key == "fields") {
      if (!scanner.Consume('[')) {
        return Status::InvalidArgument("\"fields\" must be an array");
      }
      if (!scanner.Consume(']')) {
        for (;;) {
          std::string field;
          CBVLINK_RETURN_NOT_OK(scanner.String(&field));
          out->fields.push_back(std::move(field));
          if (scanner.Consume(']')) break;
          if (!scanner.Consume(',')) {
            return Status::InvalidArgument("expected ',' in fields array");
          }
        }
      }
    } else {
      return Status::InvalidArgument("unknown key \"" + key +
                                     "\" (expected \"id\" or \"fields\")");
    }
  }
  if (!scanner.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after JSON object");
  }
  return Status::OK();
}

std::string PairsToJson(const std::vector<IdPair>& pairs) {
  std::string out = "{\"pairs\":[";
  bool first = true;
  for (const IdPair& pair : pairs) {
    if (!first) out.push_back(',');
    first = false;
    out += StrFormat("[%llu,%llu]",
                     static_cast<unsigned long long>(pair.a_id),
                     static_cast<unsigned long long>(pair.b_id));
  }
  out += "]}";
  return out;
}

std::string StatusToJson(const Status& status) {
  std::string out = "{\"error\":{\"code\":";
  AppendJsonString(StatusCodeName(status.code()), &out);
  out += ",\"message\":";
  AppendJsonString(status.message(), &out);
  out += "}}";
  return out;
}

}  // namespace net
}  // namespace cbvlink
