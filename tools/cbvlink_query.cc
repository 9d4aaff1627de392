// cbvlink_query: command-line client for a cbvlink_serve --listen
// instance, speaking either the CRC-framed binary protocol (default)
// or the HTTP/JSON mapping (--mode http).  Used by the network tests
// and the CI serving smoke job.
//
// Usage:
//   cbvlink_query --connect HOST:PORT [--mode binary|http] COMMAND
//
// Commands (exactly one):
//   --ping                 round-trip health check
//   --stats                print the server's telemetry JSON
//   --record "F1,F2,..."   one record operation; with:
//       --id N             record id (default 0)
//       --op OP            match | insert | match_and_insert | update
//                          (default match; update replaces the live
//                          record with this id — PUT /records/{id} in
//                          HTTP mode)
//       --burst N          pipeline N copies (ids N consecutive from
//                          --id) before reading any reply — the shed
//                          probe: report ok/shed/error counts
//   --op delete --id N     tombstone record N (no --record needed;
//                          DELETE /records/{id} in HTTP mode; --burst
//                          deletes N consecutive ids)
//   --queries FILE         stream a query CSV (same format cbvlink_serve
//                          reads); matched pairs go to --out as
//                          "a_id,b_id" CSV
//
// Options:
//   --insert               with --queries: match_and_insert each row
//   --id-column NAME       CSV id column (default "id")
//   --first-auto-id N      auto-id base for rows without ids (default 0)
//   --out FILE             pairs CSV destination (default stdout)
//   --allow-shed           shed (429/RESOURCE_EXHAUSTED) replies are
//                          tolerated instead of failing the run
//   --timeout-ms N         per-call IO timeout (default 30000)
//   --retries N            retry each operation up to N extra times on
//                          shed / transport error, with capped
//                          exponential backoff honoring Retry-After
//                          (binary mode, sequential ops only)
//   --deadline-ms N        overall per-operation deadline, propagated
//                          to the server (kDeadline frame prefix /
//                          X-Deadline-Ms header) and bounding retries
//   --server-timing        tracing: mint a trace id per operation,
//                          propagate it (kTraceContext frame prefix /
//                          X-Trace-Id header), and print the server's
//                          per-stage breakdown (queue/encode/candidates/
//                          compare/journal/total) from the kServerTiming
//                          frame / Server-Timing response header as a
//                          "[timing] trace=... stage=Nus ..." stderr
//                          line per operation (requires a server run
//                          with --trace; silently absent otherwise)
//
// Exit codes mirror cbvlink_serve: 0 success, 1 runtime/request error
// (including shed without --allow-shed and deadline-exceeded replies),
// 2 usage error, 3 success but some CSV rows were malformed and skipped
// (the network-mode twin of the serve exit-3 contract).  The summary
// line always reports "ok=N shed=N deadline=N error=N" — shed is
// 429/RESOURCE_EXHAUSTED, deadline is 504/DEADLINE_EXCEEDED, error is
// transport or other failures — so the smoke job can assert a burst
// actually shed (or a drill actually timed out) without parsing exit
// codes.

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/record.h"
#include "src/common/status.h"
#include "src/common/str.h"
#include "src/io/csv_reader.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/telemetry/trace.h"

namespace cbvlink {
namespace {

struct Args {
  std::string connect;
  std::string mode = "binary";
  bool ping = false;
  bool stats = false;
  std::string record_fields;
  uint64_t id = 0;
  std::string op = "match";
  size_t burst = 1;
  std::string queries_path;
  bool insert = false;
  std::string id_column = "id";
  uint64_t first_auto_id = 0;
  std::string out_path;
  bool allow_shed = false;
  int timeout_ms = 30000;
  int retries = 0;
  int64_t deadline_ms = 0;
  bool server_timing = false;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: cbvlink_query --connect HOST:PORT [--mode binary|http]\n"
      "  (--ping | --stats | --record \"F1,F2,...\" [--id N] [--op OP]\n"
      "   [--burst N] | --op delete --id N | --queries FILE [--insert])\n"
      "  [--id-column NAME] [--first-auto-id N] [--out FILE]\n"
      "  [--allow-shed] [--timeout-ms N] [--retries N] [--deadline-ms N]\n"
      "  [--server-timing]\n"
      "\n"
      "--retries N      retry shed/transport failures up to N extra times\n"
      "                 (binary mode; capped exponential backoff + jitter,\n"
      "                 honors server Retry-After hints)\n"
      "--deadline-ms N  per-operation deadline, propagated to the server\n"
      "                 and bounding the whole retry budget\n"
      "\n"
      "exit codes: 0 success; 1 request/transport error, shed without\n"
      "  --allow-shed, or deadline exceeded; 2 usage error; 3 success but\n"
      "  malformed CSV rows were skipped.  stderr summary line:\n"
      "  \"summary: ok=N shed=N deadline=N error=N skipped_rows=N\"\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--connect") {
      const char* v = next();
      if (!v) return false;
      args->connect = v;
    } else if (flag == "--mode") {
      const char* v = next();
      if (!v) return false;
      args->mode = v;
    } else if (flag == "--ping") {
      args->ping = true;
    } else if (flag == "--stats") {
      args->stats = true;
    } else if (flag == "--record") {
      const char* v = next();
      if (!v) return false;
      args->record_fields = v;
    } else if (flag == "--id") {
      const char* v = next();
      if (!v) return false;
      args->id = std::strtoull(v, nullptr, 10);
    } else if (flag == "--op") {
      const char* v = next();
      if (!v) return false;
      args->op = v;
    } else if (flag == "--burst") {
      const char* v = next();
      if (!v) return false;
      args->burst = static_cast<size_t>(std::strtoull(v, nullptr, 10));
      if (args->burst == 0) args->burst = 1;
    } else if (flag == "--queries") {
      const char* v = next();
      if (!v) return false;
      args->queries_path = v;
    } else if (flag == "--insert") {
      args->insert = true;
    } else if (flag == "--id-column") {
      const char* v = next();
      if (!v) return false;
      args->id_column = v;
    } else if (flag == "--first-auto-id") {
      const char* v = next();
      if (!v) return false;
      args->first_auto_id = std::strtoull(v, nullptr, 10);
    } else if (flag == "--out") {
      const char* v = next();
      if (!v) return false;
      args->out_path = v;
    } else if (flag == "--allow-shed") {
      args->allow_shed = true;
    } else if (flag == "--timeout-ms") {
      const char* v = next();
      if (!v) return false;
      args->timeout_ms = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (flag == "--retries") {
      const char* v = next();
      if (!v) return false;
      args->retries = static_cast<int>(std::strtol(v, nullptr, 10));
      if (args->retries < 0) args->retries = 0;
    } else if (flag == "--deadline-ms") {
      const char* v = next();
      if (!v) return false;
      args->deadline_ms = std::strtoll(v, nullptr, 10);
      if (args->deadline_ms < 0) args->deadline_ms = 0;
    } else if (flag == "--server-timing") {
      args->server_timing = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->connect.empty()) return false;
  if (args->mode != "binary" && args->mode != "http") {
    std::fprintf(stderr, "--mode must be 'binary' or 'http'\n");
    return false;
  }
  // A delete needs no record fields — the id is the whole request.
  const bool record_command =
      !args->record_fields.empty() || args->op == "delete";
  const int commands = (args->ping ? 1 : 0) + (args->stats ? 1 : 0) +
                       (record_command ? 1 : 0) +
                       (!args->queries_path.empty() ? 1 : 0);
  if (commands != 1) {
    std::fprintf(stderr,
                 "exactly one of --ping/--stats/--record/--op delete/"
                 "--queries\n");
    return false;
  }
  if (args->op != "match" && args->op != "insert" &&
      args->op != "match_and_insert" && args->op != "delete" &&
      args->op != "update") {
    std::fprintf(stderr,
                 "--op must be match|insert|match_and_insert|delete|update\n");
    return false;
  }
  if (args->op == "update" && args->record_fields.empty()) {
    std::fprintf(stderr, "--op update needs --record\n");
    return false;
  }
  return true;
}

/// Outcome tally for the summary line the smoke job greps.  Sheds
/// (overload), deadline-exceeded (the server or the retry budget gave
/// up), and transport/other errors are distinct failure modes and are
/// counted separately.
struct Tally {
  size_t ok = 0;
  size_t shed = 0;
  size_t deadline = 0;
  size_t error = 0;

  void Count(const Status& status) {
    if (status.ok()) {
      ++ok;
    } else if (status.code() == StatusCode::kResourceExhausted) {
      ++shed;
    } else if (status.code() == StatusCode::kDeadlineExceeded) {
      ++deadline;
    } else {
      ++error;
    }
  }
};

// --- minimal HTTP client (JSON mode) --------------------------------------

class HttpClient {
 public:
  static Result<std::unique_ptr<HttpClient>> Connect(const std::string& host,
                                                     uint16_t port,
                                                     int timeout_ms) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                           &res);
    if (rc != 0) {
      return Status::IOError(
          StrFormat("resolve %s: %s", host.c_str(), ::gai_strerror(rc)));
    }
    int fd = -1;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) continue;
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      ::close(fd);
      fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) return Status::IOError(StrFormat("connect %s", host.c_str()));
    if (timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = timeout_ms / 1000;
      tv.tv_usec = (timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    return std::unique_ptr<HttpClient>(new HttpClient(fd, host));
  }

  ~HttpClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Arms trace propagation: subsequent Call()s carry this id as the
  /// X-Trace-Id request header.  Empty disarms.
  void set_trace_hex(std::string trace_id_hex) {
    trace_id_hex_ = std::move(trace_id_hex);
  }

  /// The last response's Server-Timing and X-Trace-Id header values
  /// (empty when the server sent none — untraced request or a server
  /// without tracing).
  const std::string& last_server_timing() const { return server_timing_; }
  const std::string& last_trace_id() const { return resp_trace_id_; }

  /// One keep-alive request; fills `*code` and `*body`.  A positive
  /// `deadline_ms` is propagated as the X-Deadline-Ms header.
  Status Call(const std::string& method, const std::string& target,
              const std::string& body, int* code, std::string* resp_body,
              int64_t deadline_ms = 0) {
    server_timing_.clear();
    resp_trace_id_.clear();
    std::string req = StrFormat(
        "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %zu\r\n", method.c_str(),
        target.c_str(), host_.c_str(), body.size());
    if (deadline_ms > 0) {
      req += StrFormat("X-Deadline-Ms: %lld\r\n",
                       static_cast<long long>(deadline_ms));
    }
    if (!trace_id_hex_.empty()) {
      req += StrFormat("X-Trace-Id: %s\r\n", trace_id_hex_.c_str());
    }
    if (!body.empty()) req += "Content-Type: application/json\r\n";
    req += "\r\n";
    req += body;
    size_t sent = 0;
    while (sent < req.size()) {
      ssize_t n = ::send(fd_, req.data() + sent, req.size() - sent,
                         MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError("send failed");
    }
    // Read headers.
    while (buffer_.find("\r\n\r\n") == std::string::npos) {
      if (!Fill()) return Status::IOError("connection closed mid-headers");
    }
    const size_t header_end = buffer_.find("\r\n\r\n") + 4;
    const std::string headers = buffer_.substr(0, header_end);
    // Status line: HTTP/1.1 NNN ...
    if (headers.size() < 12) return Status::IOError("short status line");
    *code = std::atoi(headers.c_str() + 9);
    size_t content_length = 0;
    {
      // Case-insensitive header scans (the server emits canonical
      // casing, but be liberal).
      std::string lower;
      lower.reserve(headers.size());
      for (char c : headers)
        lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c);
      const size_t pos = lower.find("content-length:");
      if (pos != std::string::npos) {
        content_length = static_cast<size_t>(
            std::strtoull(headers.c_str() + pos + 15, nullptr, 10));
      }
      server_timing_ = HeaderValue(headers, lower, "server-timing:");
      resp_trace_id_ = HeaderValue(headers, lower, "x-trace-id:");
    }
    while (buffer_.size() < header_end + content_length) {
      if (!Fill()) return Status::IOError("connection closed mid-body");
    }
    *resp_body = buffer_.substr(header_end, content_length);
    buffer_.erase(0, header_end + content_length);
    return Status::OK();
  }

 private:
  HttpClient(int fd, std::string host) : fd_(fd), host_(std::move(host)) {}

  /// Extracts one header's value (trimmed) given the raw headers and
  /// their lowercased copy; `needle` must be lowercase with the colon.
  static std::string HeaderValue(const std::string& headers,
                                 const std::string& lower,
                                 const std::string& needle) {
    const size_t pos = lower.find(needle);
    if (pos == std::string::npos) return "";
    size_t start = pos + needle.size();
    while (start < headers.size() && headers[start] == ' ') ++start;
    const size_t end = headers.find("\r\n", start);
    if (end == std::string::npos) return "";
    return headers.substr(start, end - start);
  }

  bool Fill() {
    char buf[16 * 1024];
    while (true) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        buffer_.append(buf, static_cast<size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

  int fd_;
  std::string host_;
  std::string buffer_;
  std::string trace_id_hex_;
  std::string server_timing_;
  std::string resp_trace_id_;
};

/// Maps an HTTP response to the Tally classification.
Status StatusFromHttp(int code, const std::string& body) {
  if (code == 200) return Status::OK();
  if (code == 429)
    return Status::ResourceExhausted(StrFormat("HTTP 429: %s", body.c_str()));
  if (code == 504)
    return Status::DeadlineExceeded(StrFormat("HTTP 504: %s", body.c_str()));
  return Status::IOError(StrFormat("HTTP %d: %s", code, body.c_str()));
}

std::string RecordToJson(const Record& record) {
  std::string json =
      StrFormat("{\"id\": %llu, \"fields\": [",
                static_cast<unsigned long long>(record.id));
  for (size_t i = 0; i < record.fields.size(); ++i) {
    if (i > 0) json += ", ";
    json += '"';
    for (char c : record.fields[i]) {
      if (c == '"' || c == '\\') json += '\\';
      json += c;
    }
    json += '"';
  }
  json += "]}";
  return json;
}

/// Prints "a_id,b_id" rows.
void PrintPairs(FILE* out, const std::vector<IdPair>& pairs) {
  for (const IdPair& pair : pairs) {
    std::fprintf(out, "%llu,%llu\n",
                 static_cast<unsigned long long>(pair.a_id),
                 static_cast<unsigned long long>(pair.b_id));
  }
}

/// Extracts pairs out of the HTTP {"pairs": [[a, b], ...]} body — a
/// two-integer-tuple scan is all the shape needs.
std::vector<IdPair> PairsFromJson(const std::string& body) {
  std::vector<IdPair> pairs;
  size_t pos = body.find('[');
  if (pos == std::string::npos) return pairs;
  ++pos;
  while (pos < body.size()) {
    const size_t open = body.find('[', pos);
    if (open == std::string::npos) break;
    char* end = nullptr;
    const uint64_t a = std::strtoull(body.c_str() + open + 1, &end, 10);
    if (end == nullptr || *end != ',') break;
    const uint64_t b = std::strtoull(end + 1, &end, 10);
    if (end == nullptr || *end != ']') break;
    pairs.push_back(IdPair{a, b});
    pos = static_cast<size_t>(end - body.c_str()) + 1;
  }
  return pairs;
}

int RunMain(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  std::string host;
  uint16_t port = 0;
  Status parsed = net::ParseHostPort(args.connect, &host, &port);
  if (!parsed.ok()) {
    std::fprintf(stderr, "--connect %s: %s\n", args.connect.c_str(),
                 parsed.ToString().c_str());
    return 2;
  }

  FILE* out = stdout;
  if (!args.out_path.empty()) {
    out = std::fopen(args.out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", args.out_path.c_str());
      return 1;
    }
  }
  const auto close_out = [&] {
    if (out != stdout) std::fclose(out);
  };

  Tally tally;
  uint64_t skipped_rows = 0;

  const bool http = args.mode == "http";
  // Retries only apply to sequential binary ops: HTTP mode and the
  // pipelined burst keep their single-shot semantics.
  const bool use_retry = !http && args.retries > 0 && args.burst <= 1;
  std::unique_ptr<net::NetClient> bin;
  std::unique_ptr<net::RetryingClient> rbin;
  std::unique_ptr<HttpClient> web;
  if (http) {
    Result<std::unique_ptr<HttpClient>> connected =
        HttpClient::Connect(host, port, args.timeout_ms);
    if (!connected.ok()) {
      std::fprintf(stderr, "connect: %s\n",
                   connected.status().ToString().c_str());
      close_out();
      return 1;
    }
    web = std::move(connected).value();
  } else if (use_retry) {
    net::RetryPolicy policy;
    policy.max_attempts = args.retries + 1;
    policy.per_attempt_timeout_ms = args.timeout_ms;
    policy.total_timeout_ms = static_cast<int>(args.deadline_ms);
    net::NetClientOptions client_options;
    client_options.io_timeout_ms = args.timeout_ms;
    rbin = std::make_unique<net::RetryingClient>(host, port, policy,
                                                 client_options);
  } else {
    net::NetClientOptions client_options;
    client_options.io_timeout_ms = args.timeout_ms;
    Result<std::unique_ptr<net::NetClient>> connected =
        net::NetClient::Connect(host, port, client_options);
    if (!connected.ok()) {
      std::fprintf(stderr, "connect: %s\n",
                   connected.status().ToString().c_str());
      close_out();
      return 1;
    }
    bin = std::move(connected).value();
  }
  // Per-operation deadline (infinite when unset); RetryingClient carries
  // it through policy.total_timeout_ms instead.
  const auto op_deadline = [&]() -> Deadline {
    return args.deadline_ms > 0 ? Deadline::AfterMs(args.deadline_ms)
                                : Deadline();
  };

  // With --server-timing: print the per-stage breakdown the server
  // attached to the reply of the operation traced as `trace_id`.
  const auto print_timing = [&](uint64_t trace_id,
                                const std::vector<net::StageTiming>& stages) {
    if (!args.server_timing) return;
    std::string line =
        StrFormat("[timing] trace=%s", net::TraceIdHex(trace_id).c_str());
    if (stages.empty()) {
      line += " (no Server-Timing in reply; server run without --trace?)";
    } else {
      for (const net::StageTiming& s : stages) {
        line += StrFormat(" %s=%uus", net::TimingStageName(s.stage),
                          static_cast<unsigned>(s.dur_us));
      }
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  };

  // One record operation in the selected mode; pairs (if any) go to out.
  const auto run_op = [&](const std::string& op,
                          const Record& record) -> Status {
    std::vector<IdPair> pairs;
    Status st;
    // One fresh trace id per logical operation (retries reuse it).
    const uint64_t trace_id =
        args.server_timing ? telemetry::GenerateTraceId() : 0;
    if (http) {
      if (args.server_timing) web->set_trace_hex(net::TraceIdHex(trace_id));
      int code = 0;
      std::string body;
      if (op == "delete" || op == "update") {
        st = web->Call(op == "delete" ? "DELETE" : "PUT",
                       StrFormat("/records/%llu",
                                 static_cast<unsigned long long>(record.id)),
                       op == "delete" ? std::string() : RecordToJson(record),
                       &code, &body, args.deadline_ms);
      } else {
        st = web->Call("POST", StrFormat("/%s", op.c_str()),
                       RecordToJson(record), &code, &body, args.deadline_ms);
      }
      if (st.ok()) st = StatusFromHttp(code, body);
      if (st.ok() && op != "insert") pairs = PairsFromJson(body);
      if (st.ok()) {
        print_timing(trace_id,
                     net::ParseServerTimingHeaderValue(
                         web->last_server_timing()));
      }
    } else if (rbin != nullptr) {
      rbin->set_trace(trace_id);
      if (op == "match") {
        st = rbin->Match(record, &pairs);
      } else if (op == "insert") {
        st = rbin->Insert(record);
      } else if (op == "delete") {
        st = rbin->Delete(record.id);
      } else if (op == "update") {
        st = rbin->Update(record);
      } else {
        st = rbin->MatchAndInsert(record, &pairs);
      }
      if (st.ok()) print_timing(trace_id, rbin->last_server_timing());
    } else {
      bin->set_trace(trace_id);
      if (op == "match") {
        st = bin->Match(record, &pairs, op_deadline());
      } else if (op == "insert") {
        st = bin->Insert(record, op_deadline());
      } else if (op == "delete") {
        st = bin->Delete(record.id, op_deadline());
      } else if (op == "update") {
        st = bin->Update(record, op_deadline());
      } else {
        st = bin->MatchAndInsert(record, &pairs, op_deadline());
      }
      if (st.ok()) print_timing(trace_id, bin->last_server_timing());
    }
    if (st.ok()) PrintPairs(out, pairs);
    return st;
  };

  if (args.ping) {
    Status st;
    if (http) {
      int code = 0;
      std::string body;
      st = web->Call("GET", "/healthz", "", &code, &body, args.deadline_ms);
      if (st.ok()) st = StatusFromHttp(code, body);
    } else if (rbin != nullptr) {
      st = rbin->Ping();
    } else {
      st = bin->Ping(op_deadline());
    }
    tally.Count(st);
    if (!st.ok()) std::fprintf(stderr, "ping: %s\n", st.ToString().c_str());
  } else if (args.stats) {
    std::string json;
    Status st;
    if (http) {
      int code = 0;
      st = web->Call("GET", "/stats", "", &code, &json, args.deadline_ms);
      if (st.ok()) st = StatusFromHttp(code, json);
    } else if (rbin != nullptr) {
      st = rbin->Stats(&json);
    } else {
      st = bin->Stats(&json, op_deadline());
    }
    tally.Count(st);
    if (st.ok()) {
      std::fprintf(out, "%s\n", json.c_str());
    } else {
      std::fprintf(stderr, "stats: %s\n", st.ToString().c_str());
    }
  } else if (!args.record_fields.empty() || args.op == "delete") {
    Record record;
    record.id = args.id;
    for (const std::string& field : StrSplit(args.record_fields, ',')) {
      record.fields.push_back(field);
    }
    if (args.burst <= 1 || http) {
      // Sequential (HTTP has no pipelined mode here).
      for (size_t i = 0; i < args.burst; ++i) {
        Record r = record;
        r.id = args.id + i;
        Status st = run_op(args.op, r);
        tally.Count(st);
        if (!st.ok() &&
            !(args.allow_shed &&
              st.code() == StatusCode::kResourceExhausted)) {
          std::fprintf(stderr, "%s: %s\n", args.op.c_str(),
                       st.ToString().c_str());
        }
      }
    } else {
      // Pipelined burst: send everything, then read everything — the
      // admission queue fills faster than the workers drain it, so a
      // large enough burst must shed.
      net::MsgType type = net::MsgType::kMatch;
      net::MsgType expect = net::MsgType::kMatchResult;
      if (args.op == "insert") {
        type = net::MsgType::kInsert;
        expect = net::MsgType::kInserted;
      } else if (args.op == "match_and_insert") {
        type = net::MsgType::kMatchAndInsert;
      } else if (args.op == "delete") {
        type = net::MsgType::kDelete;
        expect = net::MsgType::kDeleted;
      } else if (args.op == "update") {
        type = net::MsgType::kUpdate;
        expect = net::MsgType::kUpdated;
      }
      Status st = bin->PipelinedBurst(
          type, record, args.burst,
          [&](size_t, const net::Frame& reply) {
            if (reply.type == net::MsgType::kError) {
              Status carried = Status::OK();
              if (!net::DecodeErrorPayload(reply.payload, &carried).ok()) {
                carried = Status::IOError("undecodable error frame");
              }
              tally.Count(carried);
              return;
            }
            if (reply.type != expect) {
              ++tally.error;
              return;
            }
            ++tally.ok;
            if (reply.type == net::MsgType::kMatchResult) {
              std::vector<IdPair> pairs;
              if (net::DecodePairs(reply.payload, &pairs).ok()) {
                PrintPairs(out, pairs);
              }
            }
          });
      if (!st.ok()) {
        std::fprintf(stderr, "burst: %s\n", st.ToString().c_str());
        tally.error += 1;
      }
    }
  } else {
    CsvReadOptions read_options;
    read_options.id_column = args.id_column;
    read_options.first_auto_id = args.first_auto_id;
    read_options.skip_malformed_rows = true;
    Result<CsvDataset> queries =
        ReadCsvDataset(args.queries_path, read_options);
    if (!queries.ok()) {
      std::fprintf(stderr, "reading %s: %s\n", args.queries_path.c_str(),
                   queries.status().ToString().c_str());
      close_out();
      return 1;
    }
    skipped_rows = queries.value().skipped_rows;
    for (const std::string& why : queries.value().skip_errors) {
      std::fprintf(stderr, "skipped query row: %s\n", why.c_str());
    }
    std::fprintf(out, "a_id,b_id\n");
    const std::string op = args.insert ? "match_and_insert" : "match";
    for (const Record& record : queries.value().records) {
      Status st = run_op(op, record);
      tally.Count(st);
      if (!st.ok() &&
          !(args.allow_shed &&
            st.code() == StatusCode::kResourceExhausted)) {
        std::fprintf(stderr, "row %llu: %s\n",
                     static_cast<unsigned long long>(record.id),
                     st.ToString().c_str());
      }
    }
  }

  close_out();
  std::fprintf(stderr,
               "summary: ok=%zu shed=%zu deadline=%zu error=%zu "
               "skipped_rows=%llu\n",
               tally.ok, tally.shed, tally.deadline, tally.error,
               static_cast<unsigned long long>(skipped_rows));
  if (rbin != nullptr) {
    const net::RetryingClient::Counters& c = rbin->counters();
    std::fprintf(stderr,
                 "retries: attempts=%llu retries=%llu reconnects=%llu "
                 "sheds_seen=%llu deadline_seen=%llu transport_errors=%llu\n",
                 static_cast<unsigned long long>(c.attempts),
                 static_cast<unsigned long long>(c.retries),
                 static_cast<unsigned long long>(c.reconnects),
                 static_cast<unsigned long long>(c.sheds_seen),
                 static_cast<unsigned long long>(c.deadline_seen),
                 static_cast<unsigned long long>(c.transport_errors));
  }
  if (tally.error > 0 || tally.deadline > 0) return 1;
  if (tally.shed > 0 && !args.allow_shed) return 1;
  if (skipped_rows > 0) {
    std::fprintf(stderr,
                 "exiting 3: %llu malformed query rows were skipped\n",
                 static_cast<unsigned long long>(skipped_rows));
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace cbvlink

int main(int argc, char** argv) { return cbvlink::RunMain(argc, argv); }
