// cbvlink_serve: run the concurrent linkage service from the command line.
//
// Builds (or restores) a registry index, then streams query CSV records
// through it, writing matched (registry_id, query_id) pairs.  This is the
// introduction's "nearly real-time" deployment: the registry is a
// long-lived service artifact that can be snapshotted to disk and
// restarted warm.
//
// Usage:
//   cbvlink_serve --registry A.csv --queries B.csv [options]
//   cbvlink_serve --snapshot-in S.cbvs --queries B.csv [options]
//
// Options:
//   --registry FILE        registry CSV (header; see --id-column)
//   --queries FILE         query CSV streamed against the registry
//   --snapshot-in FILE     restore the service from a snapshot instead of
//                          building it from --registry
//   --snapshot-out FILE    write a snapshot after serving
//   --insert               MatchAndInsert: queries join the registry so
//                          later arrivals can link to them
//   --id-column NAME       id column (default "id"; row numbers when
//                          absent — query auto-ids start after registry)
//   --rule RULE            classification rule (default: every attribute
//                          <= --theta)
//   --theta N              per-attribute threshold default (default 4)
//   --k N                  base hashes per blocking group (default 30)
//   --delta X              miss probability (default 0.1)
//   --alphanumeric         alphanumeric alphabet for every attribute
//   --seed N               RNG seed (default 7)
//   --num-threads N        batch worker threads (default 0 = hardware)
//   --max-bucket N         bucket-size cap (default 0 = unlimited)
//   --overflow POLICY      truncate | scan (default scan)
//   --batch N              stream queries in batches of N (default 1024;
//                          1 = strictly sequential arrivals)
//   --out FILE             matched pairs CSV (default stdout)
//   --metrics-out FILE     telemetry JSON dump (latency quantiles,
//                          match-funnel counters, per-table LSH health),
//                          written atomically at exit and at every
//                          stats interval
//   --stats-interval SEC   periodic stats reporter: every SEC seconds
//                          print a one-line summary to stderr and
//                          refresh --metrics-out (0 = off, default)
//
// Network serving (src/net/): with --listen the process keeps serving
// after the optional query stream, speaking the binary protocol and
// HTTP/JSON on one port until SIGINT/SIGTERM:
//   --listen [ADDR:]PORT   serve over TCP (port 0 = ephemeral; the
//                          bound address is printed to stderr as
//                          "listening on ADDR:PORT")
//   --journal FILE         append-only insert journal: replayed on
//                          startup (after the registry/snapshot load),
//                          then every acknowledged insert is appended
//                          so a crash loses nothing
//   --fsync POLICY         journal durability: always (default), none,
//                          or a number N (fsync every N appends)
//   --queue-cap N          admission cap on queued requests; beyond it
//                          requests are shed with 429/RESOURCE_EXHAUSTED
//                          (default 256)
//   --max-conns N          accepted-connection cap (default 1024)
//   --idle-timeout SEC     close connections idle this long (default 60)
//   --follow HOST:PORT     warm-standby mode: bootstrap from the
//                          primary's snapshot, tail its journal, and
//                          (with --listen) serve read-only
//   --trace                enable request tracing: every Nth request
//                          (--trace-sample-n) keeps its span tree, and
//                          every request slower than --trace-slow-us
//                          is kept regardless (the slow-query log);
//                          captured traces are served at GET /tracez
//   --trace-sample-n N     head sampling: keep every Nth trace
//                          (default 1 = all; 0 = slow-only)
//   --trace-slow-us N      slow-query threshold in microseconds
//                          (default 50000; 0 disables tail capture)
//   --trace-out FILE       write captured traces as Chrome trace-event
//                          JSON at exit (load in chrome://tracing or
//                          Perfetto); slow queries also land in the
//                          sibling FILE with a .slow suffix
// Any --trace-* flag implies --trace.
// --num-threads sizes the network worker pool too, so one flag governs
// batch and network parallelism.
//
// Malformed query-CSV rows are skipped (not fatal): each skip is
// counted, the first reasons are reported at exit, and the process
// exits 3 instead of 0 so pipelines notice degraded input.  Exit codes:
// 0 success, 1 runtime error, 2 usage error, 3 served with skipped rows.
// The shutdown summary always states the skipped-row count and the
// restore-fallback status, so exit 3 is explainable from stderr alone.
//
// Fault injection: CBVLINK_FAILPOINTS activates failpoints (e.g.
// "service.insert=delay(5)" or "io.atomic.rename=error") in the serving
// and snapshot paths; see src/common/failpoint.h for the grammar.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/common/str.h"
#include "src/io/csv_reader.h"
#include "src/io/journal.h"
#include "src/net/client.h"
#include "src/net/replication.h"
#include "src/net/server.h"
#include "src/rules/rule_parser.h"
#include "src/service/linkage_service.h"
#include "src/telemetry/exporters.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace_sink.h"

namespace cbvlink {
namespace {

struct Args {
  std::string registry_path;
  std::string queries_path;
  std::string snapshot_in;
  std::string snapshot_out;
  bool insert = false;
  std::string id_column = "id";
  std::string rule_text;
  size_t theta = 4;
  size_t k = 30;
  double delta = 0.1;
  bool alphanumeric = false;
  uint64_t seed = 7;
  size_t threads = 0;
  size_t max_bucket = 0;
  std::string overflow = "scan";
  size_t batch = 1024;
  std::string out_path;
  std::string metrics_out;
  size_t stats_interval = 0;
  // Network serving.
  std::string listen;   // "[ADDR:]PORT"; empty = no server
  std::string journal_path;
  std::string fsync = "always";
  std::string follow;   // "HOST:PORT"; standby mode
  size_t queue_cap = 256;
  size_t max_conns = 1024;
  size_t idle_timeout_sec = 60;
  size_t drain_deadline_ms = 5000;
  // Request tracing (src/telemetry/trace_sink.h).
  bool trace = false;
  size_t trace_sample_n = 1;
  size_t trace_slow_us = 50000;
  std::string trace_out;  // Chrome trace-event JSON, written at exit
};

/// SIGINT/SIGTERM latch for the --listen wait loop.
std::atomic<int> g_signal{0};
void OnSignal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

/// Parses --fsync (always | none | N) into JournalOptions::fsync_every.
bool ParseFsyncPolicy(const std::string& text, size_t* fsync_every) {
  if (text == "always") {
    *fsync_every = 1;
    return true;
  }
  if (text == "none") {
    *fsync_every = 0;
    return true;
  }
  char* end = nullptr;
  unsigned long long n = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || n == 0) return false;
  *fsync_every = static_cast<size_t>(n);
  return true;
}

/// Background stats reporter: every `interval` seconds, prints a
/// one-line delta summary to stderr and (when `metrics_path` is set)
/// refreshes the telemetry JSON dump.  Stop() is prompt: the sleep is a
/// condition-variable wait, not a blind sleep.
class StatsReporter {
 public:
  StatsReporter(const LinkageService* service, size_t interval_seconds,
                std::string metrics_path)
      : service_(service),
        interval_(interval_seconds),
        metrics_path_(std::move(metrics_path)) {
    thread_ = std::thread([this] { Loop(); });
  }

  ~StatsReporter() { Stop(); }

  void Stop() {
    {
      std::scoped_lock lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void Loop() {
    uint64_t last_queries = 0;
    for (;;) {
      {
        std::unique_lock lock(mu_);
        if (cv_.wait_for(lock, std::chrono::seconds(interval_),
                         [this] { return stopped_; })) {
          return;
        }
      }
      const ServiceMetrics m = service_->metrics();
      // Serving-tier pressure, from the gauges the NetServer maintains
      // (both 0 when no server is running): how much work is waiting
      // and how fast it is observed to drain.
      const double queue_depth =
          telemetry::Registry::Global().GetGauge("net_queue_depth")->Value();
      const double drain_rate = telemetry::Registry::Global()
                                    .GetGauge("net_queue_drain_rate")
                                    ->Value();
      std::fprintf(stderr,
                   "[stats] queries=%llu (+%llu) matches=%llu "
                   "comparisons=%llu candidates=%llu dropped=%llu "
                   "scan_fallbacks=%llu skipped_rows=%llu "
                   "queue_depth=%.0f drain_rate=%.1f/s\n",
                   static_cast<unsigned long long>(m.queries),
                   static_cast<unsigned long long>(m.queries - last_queries),
                   static_cast<unsigned long long>(m.matches),
                   static_cast<unsigned long long>(m.comparisons),
                   static_cast<unsigned long long>(m.candidate_occurrences),
                   static_cast<unsigned long long>(m.dropped_entries),
                   static_cast<unsigned long long>(m.scan_fallbacks),
                   static_cast<unsigned long long>(m.skipped_rows),
                   queue_depth, drain_rate);
      last_queries = m.queries;
      if (!metrics_path_.empty()) {
        service_->FillTelemetry();
        const Status st =
            telemetry::DumpJson(telemetry::Registry::Global(), metrics_path_);
        if (!st.ok()) {
          std::fprintf(stderr, "[stats] metrics dump %s: %s\n",
                       metrics_path_.c_str(), st.ToString().c_str());
        }
      }
    }
  }

  const LinkageService* service_;
  const size_t interval_;
  const std::string metrics_path_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

void Usage() {
  std::fprintf(stderr,
               "usage: cbvlink_serve (--registry A.csv | --snapshot-in S) "
               "--queries B.csv\n"
               "  [--insert] [--snapshot-out FILE] [--rule RULE] [--theta N]\n"
               "  [--k N] [--delta X] [--alphanumeric] [--id-column NAME]\n"
               "  [--num-threads N] [--max-bucket N] "
               "[--overflow truncate|scan]\n"
               "  [--batch N] [--out FILE] [--seed N]\n"
               "  [--metrics-out FILE] [--stats-interval SEC]\n"
               "  [--listen [ADDR:]PORT] [--journal FILE] "
               "[--fsync always|none|N]\n"
               "  [--queue-cap N] [--max-conns N] [--idle-timeout SEC]\n"
               "  [--drain-deadline-ms N] [--follow HOST:PORT]\n"
               "  [--trace] [--trace-sample-n N] [--trace-slow-us N]\n"
               "  [--trace-out FILE]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const auto next_size = [&](size_t* out) {
      const char* v = next();
      if (!v) return false;
      *out = static_cast<size_t>(std::strtoull(v, nullptr, 10));
      return true;
    };
    if (flag == "--registry") {
      const char* v = next();
      if (!v) return false;
      args->registry_path = v;
    } else if (flag == "--queries") {
      const char* v = next();
      if (!v) return false;
      args->queries_path = v;
    } else if (flag == "--snapshot-in") {
      const char* v = next();
      if (!v) return false;
      args->snapshot_in = v;
    } else if (flag == "--snapshot-out") {
      const char* v = next();
      if (!v) return false;
      args->snapshot_out = v;
    } else if (flag == "--insert") {
      args->insert = true;
    } else if (flag == "--id-column") {
      const char* v = next();
      if (!v) return false;
      args->id_column = v;
    } else if (flag == "--rule") {
      const char* v = next();
      if (!v) return false;
      args->rule_text = v;
    } else if (flag == "--theta") {
      if (!next_size(&args->theta)) return false;
    } else if (flag == "--k") {
      if (!next_size(&args->k)) return false;
    } else if (flag == "--delta") {
      const char* v = next();
      if (!v) return false;
      args->delta = std::strtod(v, nullptr);
    } else if (flag == "--alphanumeric") {
      args->alphanumeric = true;
    } else if (flag == "--seed") {
      const char* v = next();
      if (!v) return false;
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--num-threads") {
      if (!next_size(&args->threads)) return false;
    } else if (flag == "--max-bucket") {
      if (!next_size(&args->max_bucket)) return false;
    } else if (flag == "--overflow") {
      const char* v = next();
      if (!v) return false;
      args->overflow = v;
    } else if (flag == "--batch") {
      if (!next_size(&args->batch)) return false;
    } else if (flag == "--out") {
      const char* v = next();
      if (!v) return false;
      args->out_path = v;
    } else if (flag == "--metrics-out") {
      const char* v = next();
      if (!v) return false;
      args->metrics_out = v;
    } else if (flag == "--stats-interval") {
      if (!next_size(&args->stats_interval)) return false;
    } else if (flag == "--listen") {
      const char* v = next();
      if (!v) return false;
      args->listen = v;
    } else if (flag == "--journal") {
      const char* v = next();
      if (!v) return false;
      args->journal_path = v;
    } else if (flag == "--fsync") {
      const char* v = next();
      if (!v) return false;
      args->fsync = v;
    } else if (flag == "--follow") {
      const char* v = next();
      if (!v) return false;
      args->follow = v;
    } else if (flag == "--trace") {
      args->trace = true;
    } else if (flag == "--trace-sample-n") {
      args->trace = true;
      if (!next_size(&args->trace_sample_n)) return false;
    } else if (flag == "--trace-slow-us") {
      args->trace = true;
      if (!next_size(&args->trace_slow_us)) return false;
    } else if (flag == "--trace-out") {
      const char* v = next();
      if (!v) return false;
      args->trace = true;
      args->trace_out = v;
    } else if (flag == "--queue-cap") {
      if (!next_size(&args->queue_cap)) return false;
    } else if (flag == "--max-conns") {
      if (!next_size(&args->max_conns)) return false;
    } else if (flag == "--idle-timeout") {
      if (!next_size(&args->idle_timeout_sec)) return false;
    } else if (flag == "--drain-deadline-ms") {
      if (!next_size(&args->drain_deadline_ms)) return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->overflow != "scan" && args->overflow != "truncate") {
    std::fprintf(stderr, "--overflow must be 'scan' or 'truncate'\n");
    return false;
  }
  if (args->batch == 0) args->batch = 1;
  size_t fsync_every = 1;
  if (!ParseFsyncPolicy(args->fsync, &fsync_every)) {
    std::fprintf(stderr, "--fsync must be 'always', 'none', or a number\n");
    return false;
  }
  if (!args->follow.empty()) {
    if (!args->registry_path.empty() || !args->snapshot_in.empty() ||
        !args->queries_path.empty() || args->insert) {
      std::fprintf(stderr,
                   "--follow is standby mode: it excludes --registry, "
                   "--snapshot-in, --queries and --insert\n");
      return false;
    }
    return true;
  }
  if (args->registry_path.empty() && args->snapshot_in.empty()) return false;
  // --queries is optional when a network listener will serve instead.
  return !args->queries_path.empty() || !args->listen.empty();
}

/// Builds the trace sink when any --trace flag was given.
std::unique_ptr<telemetry::TraceSink> MakeTraceSink(const Args& args) {
  if (!args.trace) return nullptr;
  telemetry::TraceSinkOptions options;
  options.sample_every = args.trace_sample_n;
  options.slow_threshold_us = args.trace_slow_us;
  return std::make_unique<telemetry::TraceSink>(options);
}

/// "foo.json" -> "foo.slow.json" (or "FILE.slow.json" when FILE has no
/// extension): where the slow-query records land next to --trace-out.
std::string SlowTracePath(const std::string& path) {
  const size_t dot = path.rfind('.');
  const size_t slash = path.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + ".slow.json";
  }
  return path.substr(0, dot) + ".slow" + path.substr(dot);
}

/// Writes the Chrome trace-event dump and the slow-query sibling dump.
void DumpTraces(const telemetry::TraceSink& sink, const std::string& path) {
  if (path.empty()) return;
  const Status chrome = sink.DumpChromeTrace(path);
  if (!chrome.ok()) {
    std::fprintf(stderr, "trace dump %s: %s\n", path.c_str(),
                 chrome.ToString().c_str());
    return;
  }
  const std::string slow_path = SlowTracePath(path);
  const Status slow = sink.DumpSlowTraces(slow_path);
  if (!slow.ok()) {
    std::fprintf(stderr, "slow-trace dump %s: %s\n", slow_path.c_str(),
                 slow.ToString().c_str());
    return;
  }
  std::fprintf(stderr,
               "traces written to %s (slow queries in %s): offered=%llu "
               "captured=%llu slow=%llu\n",
               path.c_str(), slow_path.c_str(),
               static_cast<unsigned long long>(sink.offered()),
               static_cast<unsigned long long>(sink.captured()),
               static_cast<unsigned long long>(sink.captured_slow()));
}

/// Starts the network server (shared by primary and standby paths).
/// Prints the canonical "listening on ADDR:PORT" line the smoke tooling
/// greps for.  Returns null (with a message) on failure.
std::unique_ptr<net::NetServer> StartServer(LinkageService* service,
                                            const Args& args, bool read_only,
                                            telemetry::TraceSink* trace_sink) {
  std::string host;
  uint16_t port = 0;
  Status parsed = net::ParseHostPort(args.listen, &host, &port);
  if (!parsed.ok()) {
    std::fprintf(stderr, "--listen %s: %s\n", args.listen.c_str(),
                 parsed.ToString().c_str());
    return nullptr;
  }
  net::NetServerOptions options;
  options.bind_address = host;
  options.port = port;
  // One thread flag governs batch and network workers alike.
  options.num_workers = args.threads;
  options.max_queue = args.queue_cap;
  options.max_connections = args.max_conns;
  options.idle_timeout_ms = static_cast<int>(args.idle_timeout_sec * 1000);
  options.read_only = read_only;
  options.trace_sink = trace_sink;
  Result<std::unique_ptr<net::NetServer>> server =
      net::NetServer::Start(service, options);
  if (!server.ok()) {
    std::fprintf(stderr, "listen %s: %s\n", args.listen.c_str(),
                 server.status().ToString().c_str());
    return nullptr;
  }
  std::fprintf(stderr, "listening on %s:%u\n", host.c_str(),
               static_cast<unsigned>(server.value()->port()));
  std::fflush(stderr);
  return std::move(server).value();
}

/// Blocks until SIGINT/SIGTERM.  Returns the signal received.
int WaitForSignal() {
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_signal.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return g_signal.load(std::memory_order_relaxed);
}

/// Standby mode: bootstrap from the primary, follow its journal, serve
/// read-only when --listen is given.
int RunStandby(const Args& args) {
  std::string host;
  uint16_t port = 0;
  Status parsed = net::ParseHostPort(args.follow, &host, &port);
  if (!parsed.ok()) {
    std::fprintf(stderr, "--follow %s: %s\n", args.follow.c_str(),
                 parsed.ToString().c_str());
    return 2;
  }
  std::unique_ptr<telemetry::TraceSink> trace_sink = MakeTraceSink(args);
  net::ReplicaOptions options;
  options.primary_host = host;
  options.primary_port = port;
  options.trace_sink = trace_sink.get();
  options.execution = ExecutionOptions::WithThreads(args.threads);
  Result<std::unique_ptr<net::Replica>> replica =
      net::Replica::Start(options);
  if (!replica.ok()) {
    std::fprintf(stderr, "follow %s: %s\n", args.follow.c_str(),
                 replica.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "following %s:%u (%zu records synced)\n", host.c_str(),
               static_cast<unsigned>(port), replica.value()->service()->size());

  std::unique_ptr<net::NetServer> server;
  if (!args.listen.empty()) {
    server = StartServer(replica.value()->service(), args, /*read_only=*/true,
                         trace_sink.get());
    if (server == nullptr) return 1;
  }
  const int sig = WaitForSignal();
  std::fprintf(stderr, "signal %d: shutting down standby\n", sig);
  if (server != nullptr) {
    server->Drain(static_cast<int>(args.drain_deadline_ms));
    server->Shutdown();
  }
  const net::ReplicaProgress progress = replica.value()->progress();
  std::fprintf(stderr,
               "standby: epoch=%llu applied_offset=%llu lag_bytes=%llu "
               "applied_records=%llu syncs=%llu\n",
               static_cast<unsigned long long>(progress.epoch),
               static_cast<unsigned long long>(progress.applied_offset),
               static_cast<unsigned long long>(progress.lag_bytes),
               static_cast<unsigned long long>(progress.applied_records),
               static_cast<unsigned long long>(progress.syncs));
  replica.value()->Stop();
  if (trace_sink != nullptr) DumpTraces(*trace_sink, args.trace_out);
  if (!args.snapshot_out.empty()) {
    Status saved =
        replica.value()->service()->SaveSnapshotToFile(args.snapshot_out);
    if (!saved.ok()) {
      std::fprintf(stderr, "snapshot %s: %s\n", args.snapshot_out.c_str(),
                   saved.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "snapshot written to %s (%zu records)\n",
                 args.snapshot_out.c_str(), replica.value()->service()->size());
  }
  return 0;
}

int RunMain(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (!args.follow.empty()) return RunStandby(args);

  LinkageServiceOptions options;
  options.max_bucket_size = args.max_bucket;
  options.overflow_policy = args.overflow == "truncate"
                                ? OverflowPolicy::kTruncate
                                : OverflowPolicy::kScanFallback;
  options.execution = ExecutionOptions::WithThreads(args.threads);

  std::unique_ptr<LinkageService> service;
  RecordId first_query_auto_id = 0;
  Stopwatch build_watch;
  if (!args.snapshot_in.empty()) {
    Result<std::unique_ptr<LinkageService>> restored =
        LinkageService::RestoreFromFile(args.snapshot_in, options.execution);
    if (!restored.ok()) {
      std::fprintf(stderr, "restore %s: %s\n", args.snapshot_in.c_str(),
                   restored.status().ToString().c_str());
      return 1;
    }
    service = std::move(restored).value();
    first_query_auto_id = service->size();
    std::fprintf(stderr, "restored %zu records, %zu blocking groups (%.2fs)\n",
                 service->size(), service->blocking_groups(),
                 build_watch.ElapsedSeconds());
    // Always state the fallback status (not only on failure): a later
    // exit-3 investigation should find the restore health on stderr.
    if (service->metrics().restore_fallbacks > 0) {
      std::fprintf(stderr,
                   "warning: primary snapshot %s was corrupt; restored from "
                   "backup %s (restore_fallbacks=1)\n",
                   args.snapshot_in.c_str(),
                   SnapshotBackupPath(args.snapshot_in).c_str());
    } else {
      std::fprintf(stderr, "restore: primary snapshot ok "
                           "(restore_fallbacks=0)\n");
    }
  } else {
    CsvReadOptions read_options;
    read_options.id_column = args.id_column;
    Result<CsvDataset> registry =
        ReadCsvDataset(args.registry_path, read_options);
    if (!registry.ok()) {
      std::fprintf(stderr, "reading %s: %s\n", args.registry_path.c_str(),
                   registry.status().ToString().c_str());
      return 1;
    }
    first_query_auto_id = registry.value().records.size();
    const size_t nf = registry.value().attribute_names.size();

    Schema schema;
    const Alphabet& alphabet =
        args.alphanumeric ? Alphabet::Alphanumeric() : Alphabet::Uppercase();
    for (const std::string& name : registry.value().attribute_names) {
      schema.attributes.push_back(
          {name, &alphabet, QGramOptions{.q = 2, .pad = false}});
    }

    Rule rule = Rule::Pred(0, args.theta);
    if (!args.rule_text.empty()) {
      Result<Rule> parsed = ParseRule(args.rule_text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "rule: %s\n",
                     parsed.status().ToString().c_str());
        return 1;
      }
      rule = std::move(parsed).value();
    } else if (nf > 1) {
      std::vector<Rule> preds;
      for (size_t i = 0; i < nf; ++i) {
        preds.push_back(Rule::Pred(i, args.theta));
      }
      rule = Rule::And(std::move(preds));
    }

    CbvHbConfig config;
    config.schema = std::move(schema);
    config.rule = std::move(rule);
    config.record_K = args.k;
    config.record_theta = args.theta;
    config.delta = args.delta;
    config.seed = args.seed;

    Result<std::unique_ptr<LinkageService>> created = LinkageService::Create(
        std::move(config), options, registry.value().records);
    if (!created.ok()) {
      std::fprintf(stderr, "config: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    service = std::move(created).value();
    Status indexed = service->InsertBatch(registry.value().records);
    if (!indexed.ok()) {
      std::fprintf(stderr, "indexing: %s\n", indexed.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "indexed %zu records, %zu blocking groups (%.2fs)\n",
                 service->size(), service->blocking_groups(),
                 build_watch.ElapsedSeconds());
  }

  // Journal: replay the tail BEFORE attaching (attached frames are
  // re-appended), then open — Open() truncates any torn tail so new
  // appends land on a valid frame boundary.
  if (!args.journal_path.empty()) {
    Result<JournalReplayStats> replayed =
        service->ReplayJournalFile(args.journal_path);
    if (!replayed.ok()) {
      std::fprintf(stderr, "journal replay %s: %s\n", args.journal_path.c_str(),
                   replayed.status().ToString().c_str());
      return 1;
    }
    const JournalReplayStats& stats = replayed.value();
    std::fprintf(stderr,
                 "journal replay: existed=%d frames=%llu applied=%llu "
                 "tail_truncated=%d epoch=%llu\n",
                 stats.existed ? 1 : 0,
                 static_cast<unsigned long long>(stats.frames),
                 static_cast<unsigned long long>(stats.applied),
                 stats.tail_truncated ? 1 : 0,
                 static_cast<unsigned long long>(stats.epoch));
    JournalOptions journal_options;
    ParseFsyncPolicy(args.fsync, &journal_options.fsync_every);
    Result<std::unique_ptr<Journal>> journal =
        Journal::Open(args.journal_path, journal_options);
    if (!journal.ok()) {
      std::fprintf(stderr, "journal open %s: %s\n", args.journal_path.c_str(),
                   journal.status().ToString().c_str());
      return 1;
    }
    service->AttachJournal(std::move(journal).value());
  }

  std::optional<StatsReporter> reporter;
  if (args.stats_interval > 0) {
    reporter.emplace(service.get(), args.stats_interval, args.metrics_out);
  }

  std::unique_ptr<telemetry::TraceSink> trace_sink = MakeTraceSink(args);

  Stopwatch serve_watch;
  if (!args.queries_path.empty()) {
    CsvReadOptions query_options;
    query_options.id_column = args.id_column;
    query_options.first_auto_id = first_query_auto_id;
    // The query stream is external input: degrade on malformed rows
    // instead of aborting everything already served.
    query_options.skip_malformed_rows = true;
    Result<CsvDataset> queries =
        ReadCsvDataset(args.queries_path, query_options);
    if (!queries.ok()) {
      std::fprintf(stderr, "reading %s: %s\n", args.queries_path.c_str(),
                   queries.status().ToString().c_str());
      return 1;
    }
    if (queries.value().skipped_rows > 0) {
      service->RecordSkippedRows(queries.value().skipped_rows);
      for (const std::string& why : queries.value().skip_errors) {
        std::fprintf(stderr, "skipped query row: %s\n", why.c_str());
      }
    }

    FILE* out = stdout;
    if (!args.out_path.empty()) {
      out = std::fopen(args.out_path.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", args.out_path.c_str());
        return 1;
      }
    }
    std::fprintf(out, "a_id,b_id\n");

    const std::vector<Record>& stream = queries.value().records;
    std::vector<IdPair> pairs;
    for (size_t begin = 0; begin < stream.size(); begin += args.batch) {
      const size_t end = std::min(begin + args.batch, stream.size());
      pairs.clear();
      Status st;
      if (args.insert) {
        // Arrival order matters when queries join the registry: keep the
        // stream sequential within the process.
        for (size_t i = begin; i < end && st.ok(); ++i) {
          st = service->MatchAndInsert(stream[i], &pairs);
        }
      } else {
        const std::vector<Record> chunk(stream.begin() + begin,
                                        stream.begin() + end);
        st = service->MatchBatch(chunk, &pairs);
      }
      if (!st.ok()) {
        std::fprintf(stderr, "serving: %s\n", st.ToString().c_str());
        if (out != stdout) std::fclose(out);
        return 1;
      }
      for (const IdPair& pair : pairs) {
        std::fprintf(out, "%llu,%llu\n",
                     static_cast<unsigned long long>(pair.a_id),
                     static_cast<unsigned long long>(pair.b_id));
      }
    }
    if (out != stdout) std::fclose(out);
  }

  if (!args.listen.empty()) {
    // A writable server accepts deletes/updates, so let the background
    // compactor rebuild the blocking tables once tombstones pile up.
    service->StartBackgroundCompaction();
    std::unique_ptr<net::NetServer> server =
        StartServer(service.get(), args, /*read_only=*/false,
                    trace_sink.get());
    if (server == nullptr) return 1;
    const int sig = WaitForSignal();
    // Graceful drain: stop accepting, fail readiness, shed new work but
    // let admitted requests finish within the drain deadline.
    std::fprintf(stderr, "signal %d: draining server\n", sig);
    const bool drained =
        server->Drain(static_cast<int>(args.drain_deadline_ms));
    std::fprintf(stderr, "drain %s\n",
                 drained ? "complete" : "deadline expired");
    server->Shutdown();
    // Final durability point: every insert acked before shutdown must be
    // on disk even under --fsync none/N.
    if (service->journal() != nullptr) {
      const Status synced = service->journal()->Sync();
      if (!synced.ok()) {
        std::fprintf(stderr, "final journal sync: %s\n",
                     synced.ToString().c_str());
      }
    }
  }
  const double serve_seconds = serve_watch.ElapsedSeconds();
  if (reporter.has_value()) reporter->Stop();

  const ServiceMetrics metrics = service->metrics();
  std::fprintf(stderr,
               "served %llu queries in %.2fs (%.0f q/s wall), "
               "%llu matches, %llu comparisons, avg latency %.1f us\n",
               static_cast<unsigned long long>(metrics.queries),
               serve_seconds,
               serve_seconds > 0
                   ? static_cast<double>(metrics.queries) / serve_seconds
                   : 0.0,
               static_cast<unsigned long long>(metrics.matches),
               static_cast<unsigned long long>(metrics.comparisons),
               metrics.AvgQueryMicros());
  {
    const telemetry::Histogram::Snapshot latency =
        telemetry::Registry::Global()
            .GetHistogram("query_latency_us")
            ->Snap();
    std::fprintf(stderr,
                 "query latency (us): p50=%.0f p90=%.0f p99=%.0f max=%llu\n",
                 latency.Quantile(0.50), latency.Quantile(0.90),
                 latency.Quantile(0.99),
                 static_cast<unsigned long long>(latency.max));
  }
  if (metrics.dropped_entries > 0 || metrics.scan_fallbacks > 0) {
    std::fprintf(stderr, "bucket cap: %llu dropped entries, %llu scan "
                         "fallbacks\n",
                 static_cast<unsigned long long>(metrics.dropped_entries),
                 static_cast<unsigned long long>(metrics.scan_fallbacks));
  }
  // Input/restore health, stated unconditionally: the skipped-row count
  // and fallback status are the two facts that explain a non-zero exit
  // without needing --metrics-out.
  std::fprintf(stderr, "input health: skipped_rows=%llu restore_fallbacks=%llu\n",
               static_cast<unsigned long long>(metrics.skipped_rows),
               static_cast<unsigned long long>(metrics.restore_fallbacks));

  if (trace_sink != nullptr) DumpTraces(*trace_sink, args.trace_out);

  if (!args.metrics_out.empty()) {
    service->FillTelemetry();
    const Status dumped =
        telemetry::DumpJson(telemetry::Registry::Global(), args.metrics_out);
    if (!dumped.ok()) {
      std::fprintf(stderr, "metrics %s: %s\n", args.metrics_out.c_str(),
                   dumped.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "telemetry written to %s\n",
                 args.metrics_out.c_str());
  }

  if (!args.snapshot_out.empty()) {
    Status saved = service->SaveSnapshotToFile(args.snapshot_out);
    if (!saved.ok()) {
      std::fprintf(stderr, "snapshot %s: %s\n", args.snapshot_out.c_str(),
                   saved.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "snapshot written to %s (%zu records)\n",
                 args.snapshot_out.c_str(), service->size());
  }
  // Exit 3: everything that could be served was served, but some query
  // rows were malformed and dropped — distinct from hard failures (1).
  if (metrics.skipped_rows > 0) {
    std::fprintf(stderr,
                 "exiting 3: %llu malformed query rows were skipped\n",
                 static_cast<unsigned long long>(metrics.skipped_rows));
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace cbvlink

int main(int argc, char** argv) { return cbvlink::RunMain(argc, argv); }
