// perfbench_workload: runs one workload of the repository benchmark and
// writes what it measured to <out>/report.json, with raw timing samples
// as little-endian float64 files <out>/<name>.f64.  perfbench/run.py
// builds this program, runs one workload per process, turns samples into
// medians and percentiles, and prints the benchmark result.
//
//   perfbench_workload --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> --out <dir>
//
// Every layer is timed from outside, around calls into that module's
// public functions; nothing here reaches into src/ internals.  See
// perfbench/NOTES.md for why each workload exists and for the thread
// and flush policy.

#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/blocking/attribute_blocker.h"
#include "src/blocking/matcher.h"
#include "src/blocking/record_blocker.h"
#include "src/common/execution.h"
#include "src/common/hamming_kernels.h"
#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/datagen/dataset.h"
#include "src/datagen/generators.h"
#include "src/datagen/perturbator.h"
#include "src/eval/measures.h"
#include "src/io/journal.h"
#include "src/linkage/cbv_hb_linker.h"
#include "src/linkage/online_linker.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/service/linkage_service.h"
#include "src/telemetry/trace.h"
#include "src/telemetry/trace_sink.h"

namespace cbvlink {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// CPU time of every thread of this process, user and system.  With the
/// guest's steal-time accounting, time the hypervisor gives to other
/// guests is not in it.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// Fixed workload parameters.

/// LSH / encoder seed of every engine; the workload seed only drives the
/// generated inputs.
constexpr uint64_t kConfigSeed = 7;
/// Batch workloads run Link on this many threads (the paper-scale runs
/// in the ROADMAP are quoted at 4).
constexpr size_t kBatchThreads = 4;
/// Link() calls per run never drop below this, whatever --seconds says.
constexpr size_t kMinLinks = 3;
/// CbvHbLinker::Create calls averaged into one set-up sample; one call
/// takes microseconds, so single calls would only measure the timer.  A
/// set-up process (--setup 1) reports the median of its samples.
constexpr size_t kCreatesPerSetupSample = 2000;
constexpr size_t kBatchSetupSamples = 21;
/// serve_mixed issues --seconds x this many operations in total.  A fixed
/// count (not a deadline) keeps its final state, journal bytes and
/// compaction cycles identical across runs.
constexpr size_t kMixedOpsPerSecond = 20000;
/// serve_mixed sizes its registry so its deletes add up to this many
/// compaction thresholds.  Each cycle also swallows the deletes that land
/// while the compactor sleeps (up to one 200 ms poll), so the third
/// crossing still happens as long as that lag stays under 0.4 of a
/// threshold, and a fourth never can: three cycles per run.
constexpr double kMixedCompactionCycles = 3.8;
/// Untimed requests per connection before a wire measurement starts.
constexpr size_t kWarmupRequests = 2000;
/// Journal frame header: u32 magic, u32 version, u64 epoch.
constexpr uint64_t kJournalHeaderBytes = 16;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Time the workload's program set-up only, once per process.
  bool setup = false;
  std::string out;
};

// ---------------------------------------------------------------------------
// The report: metrics, sample files, deterministic counts, checks.

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

class Report {
 public:
  explicit Report(std::string dir) : dir_(std::move(dir)) {}

  /// Writes `values` as <dir>/<name>.f64; metrics refer to it by name.
  void Samples(const std::string& name, const std::vector<double>& values) {
    std::ofstream file(dir_ + "/" + name + ".f64", std::ios::binary);
    file.write(reinterpret_cast<const char*>(values.data()),
               static_cast<std::streamsize>(values.size() * sizeof(double)));
    if (!file) Fail("writing samples " + name);
  }

  /// A metric taken as the q-quantile of a sample file.
  void Quantile(const std::string& name, const std::string& unit,
                const std::string& samples, double q) {
    metrics_.push_back("\"" + name + "\": {\"unit\": \"" + unit +
                       "\", \"samples\": \"" + samples +
                       "\", \"q\": " + JsonNumber(q) + "}");
  }

  /// A metric computed here; `n` is the number of samples behind it.
  void Value(const std::string& name, const std::string& unit, double value,
             uint64_t n) {
    metrics_.push_back("\"" + name + "\": {\"unit\": \"" + unit +
                       "\", \"value\": " + JsonNumber(value) +
                       ", \"n\": " + std::to_string(n) + "}");
  }

  /// A work count that must repeat exactly for the same code and seed.
  void Count(const std::string& name, uint64_t value) {
    counts_.push_back("\"" + name + "\": " + std::to_string(value));
  }

  void Info(const std::string& name, const std::string& value) {
    info_.push_back("\"" + name + "\": \"" + JsonEscape(value) + "\"");
  }

  void Attempted(uint64_t n) { attempted_ += n; }

  /// Records a correctness check; a failed one counts as a failed
  /// operation and makes the run exit non-zero.
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back("\"" + name + "\": " + (ok ? "true" : "false"));
    if (!ok) Fail(name + ": " + detail);
  }

  void Fail(const std::string& why, uint64_t n = 1) {
    failed_ += n;
    if (errors_.size() < 20) errors_.push_back(why);
    std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
  }

  uint64_t failed() const { return failed_; }

  bool Write() const {
    std::string json = "{\n  \"attempted\": " + std::to_string(attempted_) +
                       ",\n  \"failed\": " + std::to_string(failed_) +
                       ",\n  \"errors\": [";
    for (size_t i = 0; i < errors_.size(); ++i) {
      json += (i ? ", \"" : "\"") + JsonEscape(errors_[i]) + "\"";
    }
    json += "],\n";
    const auto section = [&json](const char* key,
                                 const std::vector<std::string>& items,
                                 bool last) {
      json += std::string("  \"") + key + "\": {";
      for (size_t i = 0; i < items.size(); ++i) {
        json += (i ? ",\n    " : "\n    ") + items[i];
      }
      json += items.empty() ? "}" : "\n  }";
      json += last ? "\n" : ",\n";
    };
    section("info", info_, false);
    section("checks", checks_, false);
    section("counts", counts_, false);
    section("metrics", metrics_, true);
    json += "}\n";
    const std::string path = dir_ + "/report.json";
    std::ofstream file(path, std::ios::trunc);
    file << json;
    return static_cast<bool>(file);
  }

 private:
  std::string dir_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<std::string> info_;
  std::vector<std::string> checks_;
  std::vector<std::string> counts_;
  std::vector<std::string> metrics_;
};

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

template <typename T>
T Take(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}

void Require(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

// ---------------------------------------------------------------------------
// Host fingerprint.

/// Aggregate "cpu" line of /proc/stat: total jiffies and steal jiffies.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
  bool ok = false;
};

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return times;
  // user nice system idle iowait irq softirq steal (guest time is
  // already inside user/nice).
  for (int i = 0; i < 8; ++i) {
    uint64_t value = 0;
    if (!(stat >> value)) return times;
    times.total += value;
    if (i == 7) times.steal = value;
  }
  times.ok = true;
  return times;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

size_t HostThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RecordFingerprint(Report* report) {
  report->Info("host.nproc", std::to_string(HostThreads()));
  report->Info("host.cpu_model", CpuModel());
  report->Info("host.hamming_kernel_active", ActiveKernels().name);
  // No perf counters are sampled; say whether the host would even allow
  // it, so a later run on a PMU-capable host is told apart.
  report->Info("host.hw_counters",
               std::filesystem::exists("/sys/bus/event_source/devices/cpu")
                   ? "not sampled"
                   : "unavailable (no CPU PMU exposed)");
}

// ---------------------------------------------------------------------------
// Inputs and engine configuration.

enum class Scheme { kPL, kPH };

struct Inputs {
  LinkagePair data;
  PairSet truth;
  CbvHbConfig config;
};

/// cBV-HB as in Section 6.2 of the paper: PL uses record-level HB
/// (K = 30, theta = 4, every attribute within 4); PH uses rule C1
/// (f1 <= 4 AND f2 <= 4 AND f3 <= 8) with attribute-level blocking.  The
/// configuration does not depend on the workload seed.
CbvHbConfig ConfigFor(Scheme scheme) {
  CbvHbConfig config;
  config.schema = Take(NcvrGenerator::Create(), "generator").schema();
  config.seed = kConfigSeed;
  // The generator's calibration targets stand in for the sampled
  // estimate (Section 5.2) and go to every engine: the batch linker, the
  // online linker and the service build one encoder, and its Theorem 1
  // sizes do not jump between seeds with the sample.
  const NcvrTargets targets;
  config.expected_qgrams = {targets.first_name_b, targets.last_name_b,
                            targets.address_b, targets.town_b};
  if (scheme == Scheme::kPL) {
    config.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                             Rule::Pred(2, 4), Rule::Pred(3, 4)});
    config.attribute_level_blocking = false;
    config.record_K = 30;
    config.record_theta = 4;
  } else {
    config.rule =
        Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4), Rule::Pred(2, 8)});
    config.attribute_level_blocking = true;
    config.attribute_K = {5, 5, 10, 5};
  }
  return config;
}

Inputs MakeInputs(Scheme scheme, size_t num_records, uint64_t seed) {
  const NcvrGenerator generator = Take(NcvrGenerator::Create(), "generator");
  LinkagePairOptions options;
  options.num_records = num_records;
  options.seed = seed;
  Inputs inputs;
  inputs.data = Take(
      BuildLinkagePair(generator,
                       scheme == Scheme::kPL ? PerturbationScheme::Light()
                                             : PerturbationScheme::Heavy(4),
                       options),
      "dataset");
  inputs.truth = TruthPairs(inputs.data.truth);
  inputs.config = ConfigFor(scheme);
  return inputs;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<IdPair> Sorted(std::vector<IdPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// pc and pq against ground truth; with `check_bound` a pc below the
/// paper's 1 - delta guarantee (delta of `config`) fails the run.
void ReportQuality(const std::vector<IdPair>& found, const PairSet& truth,
                   uint64_t comparisons, size_t size_a, size_t size_b,
                   const CbvHbConfig& config, bool check_bound,
                   Report* report) {
  const QualityMeasures quality =
      ComputeQuality(found, truth, comparisons, size_a, size_b);
  report->Value("pc", "frac", quality.pairs_completeness,
                quality.total_true_matches);
  report->Value("pq", "frac", quality.pairs_quality, quality.candidate_pairs);
  report->Count("quality.true_matches_found", quality.true_matches_found);
  report->Count("quality.true_matches_total", quality.total_true_matches);
  if (check_bound) {
    report->Check("pc_at_least_1_minus_delta",
                  quality.pairs_completeness >= 1 - config.delta,
                  "pc " + std::to_string(quality.pairs_completeness));
  }
}

// ---------------------------------------------------------------------------
// Batch workloads: CbvHbLinker::Link, and its layers timed one by one.

/// Per-stage wall times of one Link() replayed layer by layer.
struct StageRun {
  double encode_s = 0;
  double index_s = 0;
  double probe_s = 0;
  double match_s = 0;
  /// Wall of the replay, freeing included, without the probe-only pass
  /// (which Link lacks).
  double wall_s = 0;
  uint64_t probe_candidates = 0;
  MatchStats stats;
  std::vector<IdPair> pairs;
};

/// Replays CbvHbLinker::Link stage by stage through the public layer
/// APIs, in the same order and with the same Rng draws, so its pairs
/// must equal Link's.  The probe stage is an extra candidate-only pass
/// (ForEachCandidateSpan) that splits MatchAll into probe and compare.
StageRun RunStages(const CbvHbConfig& config, const std::vector<Record>& a,
                   const std::vector<Record>& b) {
  StageRun run;
  const Clock::time_point start = Clock::now();
  {
    ExecutionContext ctx(ExecutionOptions::WithThreads(kBatchThreads));
    Rng rng(config.seed);

    Clock::time_point t = Clock::now();
    const CVectorRecordEncoder encoder = Take(
        CVectorRecordEncoder::Create(config.schema, config.expected_qgrams,
                                     rng, config.sizing),
        "encoder");
    const std::vector<EncodedRecord> encoded_a = Take(
        encoder.EncodeAll(a, ctx.pool(), ctx.chunk_size_hint()), "encode A");
    const std::vector<EncodedRecord> encoded_b = Take(
        encoder.EncodeAll(b, ctx.pool(), ctx.chunk_size_hint()), "encode B");
    run.encode_s = SecondsSince(t);

    t = Clock::now();
    std::optional<RecordLevelBlocker> record_blocker;
    std::optional<AttributeLevelBlocker> attribute_blocker;
    const CandidateSource* source = nullptr;
    if (config.attribute_level_blocking) {
      AttributeBlockerOptions options;
      options.attribute_K = config.attribute_K;
      options.delta = config.delta;
      attribute_blocker.emplace(Take(
          AttributeLevelBlocker::Create(config.rule, encoder.layout(), options,
                                        rng),
          "attribute blocker"));
      attribute_blocker->BulkInsert(encoded_a, ctx.pool(),
                                    ctx.chunk_size_hint());
      source = &*attribute_blocker;
    } else {
      record_blocker.emplace(Take(
          RecordLevelBlocker::Create(encoder.total_bits(), config.record_K,
                                     config.record_theta, config.delta, rng),
          "record blocker"));
      record_blocker->BulkInsert(encoded_a, ctx.pool(), ctx.chunk_size_hint());
      source = &*record_blocker;
    }
    VectorStore store_a;
    store_a.AddAll(encoded_a);
    run.index_s = SecondsSince(t);

    t = Clock::now();
    std::vector<uint64_t> chunk_candidates(kBatchThreads + 1, 0);
    ctx.pool()->ParallelFor(
        encoded_b.size(), [&](size_t chunk, size_t begin, size_t end) {
          uint64_t seen = 0;
          for (size_t i = begin; i < end; ++i) {
            source->ForEachCandidateSpan(
                encoded_b[i].bits,
                [&seen](std::span<const RecordId> ids) {
                  seen += ids.size();
                });
          }
          chunk_candidates[chunk] = seen;
        });
    for (const uint64_t n : chunk_candidates) run.probe_candidates += n;
    run.probe_s = SecondsSince(t);

    t = Clock::now();
    const Matcher matcher(source, &store_a);
    const PairClassifier classifier =
        MakeRuleClassifier(config.rule, encoder.layout());
    run.pairs =
        matcher.MatchAll(encoded_b, classifier, &run.stats, ctx.pool());
    run.match_s = SecondsSince(t);
  }  // Link frees its per-call structures before it returns; so does this.
  run.wall_s = SecondsSince(start) - run.probe_s;
  return run;
}

struct LinkRun {
  double wall_s = 0;
  /// CPU time of the process during Link: Link's pool and the calling
  /// thread are its only busy threads.
  double cpu_s = 0;
  /// Steal share of the host's CPU time during Link (/proc/stat).
  double steal_frac = 0;
  LinkageResult result;
};

LinkRun TimedLink(CbvHbLinker* linker, const Inputs& inputs) {
  LinkRun run;
  const CpuTimes host_start = ReadCpuTimes();
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  run.result = Take(
      linker->Link(inputs.data.a, inputs.data.b,
                   ExecutionOptions::WithThreads(kBatchThreads)),
      "Link");
  run.wall_s = SecondsSince(start);
  run.cpu_s = ProcessCpuSeconds() - cpu_start;
  const CpuTimes host_end = ReadCpuTimes();
  if (host_start.ok && host_end.ok && host_end.total > host_start.total) {
    run.steal_frac = static_cast<double>(host_end.steal - host_start.steal) /
                     static_cast<double>(host_end.total - host_start.total);
  }
  return run;
}

/// One query at a time through the batch engine's structures (the online
/// linker shares CbvHbLinker's encoder, blockers, arena and matcher):
/// builds the online linker over A and matches B[begin, end) against it.
/// Appends per-query latencies in microseconds to `*latency_us` and pairs
/// to `*pairs`; returns the InsertBatch time in seconds.
double OnlineQueryLatencies(const Inputs& inputs, size_t begin, size_t end,
                            std::vector<double>* latency_us,
                            std::vector<IdPair>* pairs) {
  OnlineCbvHbLinker online =
      Take(OnlineCbvHbLinker::Create(inputs.config), "online linker");
  const Clock::time_point start = Clock::now();
  Require(online.InsertBatch(inputs.data.a,
                             ExecutionOptions::WithThreads(kBatchThreads)),
          "online InsertBatch");
  const double insert_s = SecondsSince(start);
  for (size_t i = begin; i < end; ++i) {
    const Clock::time_point t = Clock::now();
    Require(online.Match(inputs.data.b[i], pairs), "online Match");
    latency_us->push_back(MicrosSince(t));
  }
  return insert_s;
}

/// Program set-up of a batch run: CbvHbLinker::Create, timed in a process
/// of its own on the fresh heap a user's process starts with.  The time
/// of one call settles at one of a few levels per process, so run.py
/// takes the median over several set-up processes.  setup_s is CPU time,
/// as for the serving set-up; setup_wall_s is the wall time beside it.
void RunBatchSetup(Scheme scheme, Report* report) {
  const CbvHbConfig config = ConfigFor(scheme);
  std::vector<double> cpu_s, wall_s;
  for (size_t r = 0; r < kBatchSetupSamples; ++r) {
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < kCreatesPerSetupSample; ++i) {
      Result<CbvHbLinker> created = CbvHbLinker::Create(config);
      if (!created.ok()) Die("CbvHbLinker::Create", created.status());
    }
    wall_s.push_back(SecondsSince(start) / kCreatesPerSetupSample);
    cpu_s.push_back((ProcessCpuSeconds() - cpu_start) /
                    kCreatesPerSetupSample);
  }
  report->Samples("setup_cpu_s", cpu_s);
  report->Samples("setup_wall_s", wall_s);
  report->Quantile("setup_s", "s", "setup_cpu_s", 0.5);
  report->Quantile("setup_wall_s", "s", "setup_wall_s", 0.5);
}

void RunBatch(const Args& args, Scheme scheme, size_t num_records,
              Report* report) {
  const Inputs inputs = MakeInputs(scheme, num_records, args.seed);
  const size_t size_a = inputs.data.a.size();
  const size_t size_b = inputs.data.b.size();
  report->Info("workload.shape", "|A|=" + std::to_string(size_a) +
                                     " |B|=" + std::to_string(size_b) +
                                     " threads=" +
                                     std::to_string(kBatchThreads));

  CbvHbLinker linker = Take(CbvHbLinker::Create(inputs.config), "linker");
  // The first Link warms the allocator and page cache; its pairs are the
  // reference every later run must reproduce exactly.
  const LinkRun reference = TimedLink(&linker, inputs);
  const std::vector<IdPair> reference_pairs =
      Sorted(reference.result.matches);
  const MatchStats& stats = reference.result.stats;
  report->Attempted(1);
  report->Count("link.candidates", stats.candidate_occurrences);
  report->Count("link.comparisons", stats.comparisons);
  report->Count("link.matches", stats.matches);
  report->Count("link.pairs", reference_pairs.size());

  const auto check_link = [&](const LinkRun& run) {
    report->Attempted(1);
    const MatchStats& s = run.result.stats;
    if (Sorted(run.result.matches) != reference_pairs ||
        s.candidate_occurrences != stats.candidate_occurrences ||
        s.comparisons != stats.comparisons) {
      report->Fail("Link output differs from the first Link of the run");
    }
  };

  std::vector<double> query_us;
  std::vector<IdPair> online_pairs;
  const auto check_online = [&] {
    report->Attempted(size_b);
    report->Check("online_pairs_equal_link",
                  Sorted(online_pairs) == reference_pairs,
                  "per-query pairs differ from Link");
    report->Samples("query_us", query_us);
  };

  if (!args.trace) {
    // Half of the queries go before the Links and half after, each half
    // on an online linker of its own that is gone while Link runs: the
    // speed of a core on the host changes within seconds, and latencies
    // from one stretch of the run would carry the state of that stretch.
    OnlineQueryLatencies(inputs, 0, size_b / 2, &query_us, &online_pairs);
    // The gated rate is per CPU-second of Link, not per wall second.  Link
    // cuts each stage into one equal chunk per thread, so a stage ends
    // with its most-stolen vCPU, and on a shared host the wall time
    // follows the hypervisor's steal more than the code (NOTES.md).
    std::vector<double> cpu_rate, wall_rate, steal;
    const Clock::time_point start = Clock::now();
    while (cpu_rate.size() < kMinLinks || SecondsSince(start) < args.seconds) {
      const LinkRun run = TimedLink(&linker, inputs);
      check_link(run);
      cpu_rate.push_back(static_cast<double>(size_b) / run.cpu_s);
      wall_rate.push_back(static_cast<double>(size_b) / run.wall_s);
      steal.push_back(run.steal_frac);
    }
    OnlineQueryLatencies(inputs, size_b / 2, size_b, &query_us,
                         &online_pairs);
    check_online();
    report->Samples("link_cpu_rate", cpu_rate);
    report->Samples("link_wall_rate", wall_rate);
    report->Samples("link_steal", steal);

    report->Quantile("throughput_per_s", "1/s", "link_cpu_rate", 0.5);
    report->Quantile("link.wall_throughput_per_s", "1/s", "link_wall_rate",
                     0.5);
    report->Quantile("link.steal_frac", "frac", "link_steal", 0.5);
    report->Quantile("latency_p50_us", "us", "query_us", 0.5);
    report->Quantile("latency_p90_us", "us", "query_us", 0.9);
    ReportQuality(reference_pairs, inputs.truth, stats.comparisons, size_a,
                  size_b, inputs.config, true, report);
    report->Value("peak_rss_mb", "MB", PeakRssMb(), 1);
    return;
  }

  const double online_insert_s =
      OnlineQueryLatencies(inputs, 0, size_b, &query_us, &online_pairs);
  check_online();

  // Traced run: untraced Link and the layer-by-layer replay alternate,
  // and swap which goes first, so drift on the host lands on both sides.
  std::vector<double> link_s, replay_s, stage_sum_s, encode_ns, index_ns,
      probe_ns, match_ns, unattributed;
  const Clock::time_point start = Clock::now();
  while (link_s.size() < kMinLinks || SecondsSince(start) < args.seconds) {
    const bool link_first = link_s.size() % 2 == 0;
    std::optional<StageRun> replay;
    if (!link_first) {
      replay = RunStages(inputs.config, inputs.data.a, inputs.data.b);
    }
    const LinkRun run = TimedLink(&linker, inputs);
    check_link(run);
    if (link_first) {
      replay = RunStages(inputs.config, inputs.data.a, inputs.data.b);
    }
    const StageRun& stages = *replay;
    report->Attempted(1);
    if (Sorted(stages.pairs) != reference_pairs ||
        stages.probe_candidates != stats.candidate_occurrences) {
      report->Fail("layer-by-layer replay differs from Link");
    }
    link_s.push_back(run.wall_s);
    replay_s.push_back(stages.wall_s);
    stage_sum_s.push_back(stages.encode_s + stages.index_s + stages.match_s);
    encode_ns.push_back(stages.encode_s * 1e9 /
                        static_cast<double>(size_a + size_b));
    index_ns.push_back(stages.index_s * 1e9 / static_cast<double>(size_a));
    probe_ns.push_back(stages.probe_s * 1e9 / static_cast<double>(size_b));
    match_ns.push_back((stages.match_s - stages.probe_s) * 1e9 /
                       static_cast<double>(std::max<uint64_t>(
                           1, stats.comparisons)));
    unattributed.push_back((run.wall_s - stage_sum_s.back()) / run.wall_s);
  }
  report->Samples("link_s", link_s);
  report->Samples("replay_s", replay_s);
  report->Samples("stage_sum_s", stage_sum_s);
  report->Samples("encode_ns", encode_ns);
  report->Samples("index_ns", index_ns);
  report->Samples("probe_ns", probe_ns);
  report->Samples("match_ns", match_ns);
  report->Samples("unattributed", unattributed);

  report->Quantile("embedding.encode_ns_per_record", "ns", "encode_ns", 0.5);
  report->Quantile("index.insert_ns_per_record", "ns", "index_ns", 0.5);
  report->Quantile("blocking.probe_ns_per_query", "ns", "probe_ns", 0.5);
  report->Quantile("blocking.match_ns_per_comparison", "ns", "match_ns", 0.5);
  const double queries = static_cast<double>(size_b);
  const double occurrences =
      static_cast<double>(std::max<uint64_t>(1, stats.candidate_occurrences));
  const double comparisons =
      static_cast<double>(std::max<uint64_t>(1, stats.comparisons));
  report->Value("blocking.candidates_per_query", "count",
                static_cast<double>(stats.candidate_occurrences) / queries,
                size_b);
  report->Value("blocking.comparisons_per_query", "count",
                static_cast<double>(stats.comparisons) / queries, size_b);
  report->Value("blocking.dedup_skip_frac", "frac",
                static_cast<double>(stats.dedup_skipped) / occurrences,
                stats.candidate_occurrences);
  report->Value("blocking.match_frac", "frac",
                static_cast<double>(stats.matches) / comparisons,
                stats.comparisons);
  report->Quantile("inproc.match_p50_us", "us", "query_us", 0.5);
  report->Quantile("inproc.match_p90_us", "us", "query_us", 0.9);
  report->Quantile("linkage.unattributed_frac", "frac", "unattributed", 0.5);
  // Reconciliation of the replay against Link (medians of each side).
  report->Value("trace.overhead_frac", "frac",
                Median(replay_s) / Median(link_s) - 1, link_s.size());
  report->Quantile("reconcile.link_wall_s", "s", "link_s", 0.5);
  report->Quantile("reconcile.replay_wall_s", "s", "replay_s", 0.5);
  report->Quantile("reconcile.stage_sum_s", "s", "stage_sum_s", 0.5);
  report->Value("online.insert_ns_per_record", "ns",
                online_insert_s * 1e9 / static_cast<double>(size_a), 1);
}

// ---------------------------------------------------------------------------
// Serving workloads: LinkageService behind NetServer, closed loop.

/// CPU layout of a serving run.  The request path (the client
/// connections, the NetServer IO thread and its workers) runs on the last
/// CPU the process may use; the service pool, the background compactor
/// and set-up run on the others.  On a KVM guest a wake-up on another
/// vCPU costs tens of microseconds and moves with the load of other
/// guests, so a request path spread over CPUs does not repeat; background
/// work still runs beside it on CPUs of its own.  A process with one CPU
/// runs everything there.
struct CpuLayout {
  cpu_set_t request;
  cpu_set_t background;
  int request_cpu = -1;
  size_t background_cpus = 0;
};

const CpuLayout& ServeLayout() {
  static const CpuLayout layout = [] {
    CpuLayout l;
    CPU_ZERO(&l.request);
    CPU_ZERO(&l.background);
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return l;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      if (l.request_cpu < 0) {
        l.request_cpu = cpu;
        CPU_SET(cpu, &l.request);
      } else {
        CPU_SET(cpu, &l.background);
        ++l.background_cpus;
      }
    }
    if (l.background_cpus == 0) l.background = l.request;
    return l;
  }();
  return layout;
}

/// Moves the calling thread to the request CPU, or to the background
/// CPUs.  Threads started afterwards inherit the mask.
void RunOnRequestCpu(bool request) {
  const CpuLayout& layout = ServeLayout();
  if (layout.request_cpu < 0) return;
  const cpu_set_t& set = request ? layout.request : layout.background;
  sched_setaffinity(0, sizeof(set), &set);
}

void ReportLayout(Report* report) {
  const CpuLayout& layout = ServeLayout();
  report->Info("workload.cpus",
               "request path on cpu " + std::to_string(layout.request_cpu) +
                   ", pool and compactor on " +
                   std::to_string(layout.background_cpus) + " other cpus");
}

/// Thread budget of a serving run: server workers + service pool +
/// client connections stay within the host's CPU count.
struct ServeBudget {
  size_t connections = 1;
  size_t server_workers = 1;
  size_t service_threads = 1;
};

struct ServeStack {
  std::unique_ptr<LinkageService> service;
  std::unique_ptr<net::NetServer> server;
  double insert_s = 0;
};

/// Starts a NetServer whose IO thread and workers run on the request CPU.
std::unique_ptr<net::NetServer> StartServer(LinkageService* service,
                                            const ServeBudget& budget,
                                            telemetry::TraceSink* sink,
                                            const std::string& what) {
  net::NetServerOptions options;
  options.num_workers = budget.server_workers;
  // Closed loop keeps at most one request per connection in flight;
  // nothing may be shed.
  options.max_queue = 1024;
  options.trace_sink = sink;
  RunOnRequestCpu(true);
  Result<std::unique_ptr<net::NetServer>> server =
      net::NetServer::Start(service, options);
  RunOnRequestCpu(false);
  return Take(std::move(server), what);
}

/// Program set-up of a serving run: Create + InsertBatch(registry) +
/// NetServer::Start.
ServeStack StartStack(const CbvHbConfig& config, const ServeBudget& budget,
                      const std::vector<Record>& registry) {
  ServeStack stack;
  LinkageServiceOptions options;
  options.execution = ExecutionOptions::WithThreads(budget.service_threads);
  stack.service =
      Take(LinkageService::Create(config, options), "LinkageService");
  const Clock::time_point t = Clock::now();
  Require(stack.service->InsertBatch(registry), "InsertBatch");
  stack.insert_s = SecondsSince(t);
  stack.server =
      StartServer(stack.service.get(), budget, nullptr, "NetServer");
  return stack;
}

/// Program set-up of a serving run, timed once in a process of its own
/// (--setup 1): the first build is the one a user's process pays, and
/// run.py takes the median over several set-up processes.
void TimedSetup(const CbvHbConfig& config, const ServeBudget& budget,
                const std::vector<Record>& registry, Report* report) {
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  ServeStack stack = StartStack(config, budget, registry);
  const double wall_s = SecondsSince(start);
  // CPU time, not wall: InsertBatch cuts the registry into one equal
  // chunk per pool thread, so its wall time ends with the most-stolen
  // vCPU, as Link's does (NOTES.md).
  report->Value("setup_s", "s", ProcessCpuSeconds() - cpu_start, 1);
  report->Value("setup_wall_s", "s", wall_s, 1);
  stack.server->Shutdown();
}

using PairsByQuery = std::unordered_map<RecordId, std::vector<IdPair>>;

PairsByQuery GroupByQuery(const std::vector<IdPair>& pairs) {
  PairsByQuery grouped;
  for (const IdPair& pair : pairs) grouped[pair.b_id].push_back(pair);
  for (auto& [id, list] : grouped) std::sort(list.begin(), list.end());
  return grouped;
}

/// What a closed-loop wire measurement saw.
struct WireRun {
  /// Match latencies, and insert/update/delete latencies.
  std::vector<double> latency_us;
  std::vector<double> write_us;
  /// Completion instant of every timed request, seconds after the start.
  std::vector<double> done_s;
  /// Server-Timing durations per stage (traced servers only).
  std::vector<std::vector<double>> stage_us =
      std::vector<std::vector<double>>(7);
  uint64_t ok = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;

  void Record(bool write, double us, Clock::time_point start,
              const net::NetClient& client) {
    ++ok;
    (write ? write_us : latency_us).push_back(us);
    done_s.push_back(SecondsSince(start));
    for (const net::StageTiming& stage : client.last_server_timing()) {
      const size_t index = static_cast<size_t>(stage.stage);
      if (index < stage_us.size()) stage_us[index].push_back(stage.dur_us);
    }
  }

  void Merge(const WireRun& other) {
    const auto append = [](std::vector<double>* to,
                           const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&latency_us, other.latency_us);
    append(&write_us, other.write_us);
    append(&done_s, other.done_s);
    for (size_t s = 0; s < stage_us.size(); ++s) {
      append(&stage_us[s], other.stage_us[s]);
    }
    ok += other.ok;
    failed += other.failed;
  }

  /// Completions per second in consecutive windows (0.5 s, or a quarter
  /// of the run if shorter); the last, partial window is dropped.  Their
  /// median ignores a window hit by a stall on the host.
  std::vector<double> WindowRates() const {
    const double window_s = std::min(0.5, elapsed_s / 4);
    const size_t windows = static_cast<size_t>(elapsed_s / window_s);
    std::vector<double> rates(windows, 0);
    for (const double t : done_s) {
      const size_t w = static_cast<size_t>(t / window_s);
      if (w < windows) rates[w] += 1 / window_s;
    }
    return rates;
  }
};

/// Opens one connection per thread and runs `body(c, client, run, start)`
/// on each once all are connected, from one shared start instant.
WireRun RunConnections(
    uint16_t port, size_t connections,
    const std::function<void(size_t, net::NetClient&, WireRun&,
                             Clock::time_point)>& body) {
  std::vector<WireRun> runs(connections);
  std::vector<std::thread> threads;
  std::atomic<size_t> connected{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      RunOnRequestCpu(true);
      Result<std::unique_ptr<net::NetClient>> client =
          net::NetClient::Connect("127.0.0.1", port);
      connected.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (!client.ok()) {
        ++runs[c].failed;
        return;
      }
      body(c, *client.value(), runs[c], start);
    });
  }
  while (connected.load() < connections) std::this_thread::yield();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  WireRun merged;
  for (const WireRun& run : runs) merged.Merge(run);
  merged.elapsed_s = SecondsSince(start);
  return merged;
}

/// Closed loop: each connection sends a match, waits for its reply,
/// checks the pairs against `expected`, and sends the next, for `seconds`
/// after kWarmupRequests untimed requests per connection.
WireRun ClosedLoopMatches(uint16_t port, const std::vector<Record>& queries,
                          const std::vector<size_t>& order,
                          const PairsByQuery& expected, size_t connections,
                          double seconds, bool traced) {
  std::vector<size_t> next(connections);
  const auto body = [&](bool timed) {
    return [&, timed](size_t c, net::NetClient& client, WireRun& run,
                      Clock::time_point start) {
      std::vector<IdPair> pairs;
      for (size_t i = 0; timed ? SecondsSince(start) < seconds
                               : i < kWarmupRequests;
           ++i) {
        const Record& query =
            queries[order[(next[c]++ * connections + c) % order.size()]];
        if (traced) client.set_trace(telemetry::GenerateTraceId());
        pairs.clear();
        const Clock::time_point t = Clock::now();
        const Status status = client.Match(query, &pairs);
        const double us = MicrosSince(t);
        std::sort(pairs.begin(), pairs.end());
        const auto it = expected.find(query.id);
        const bool right = it == expected.end() ? pairs.empty()
                                                : pairs == it->second;
        if (!status.ok() || !right) {
          ++run.failed;
        } else if (timed) {
          run.Record(false, us, start, client);
        }
      }
    };
  };
  WireRun warmup = RunConnections(port, connections, body(false));
  WireRun timed = RunConnections(port, connections, body(true));
  timed.failed += warmup.failed;
  return timed;
}

/// In-process LinkageService::Match over `queries`, one at a time, with
/// the funnel counters it moved.
struct InProcessRun {
  std::vector<double> latency_us;
  std::vector<IdPair> pairs;
  uint64_t candidates = 0;
  uint64_t comparisons = 0;
  uint64_t matches = 0;
};

InProcessRun InProcessMatches(const LinkageService& service,
                              const std::vector<Record>& queries) {
  InProcessRun run;
  const ServiceMetrics before = service.metrics();
  run.latency_us.reserve(queries.size());
  for (const Record& query : queries) {
    const Clock::time_point t = Clock::now();
    Require(service.Match(query, &run.pairs), "in-process Match");
    run.latency_us.push_back(MicrosSince(t));
  }
  const ServiceMetrics after = service.metrics();
  run.candidates = after.candidate_occurrences - before.candidate_occurrences;
  run.comparisons = after.comparisons - before.comparisons;
  run.matches = after.matches - before.matches;
  return run;
}

void ReportFunnel(uint64_t queries, uint64_t candidates, uint64_t comparisons,
                  uint64_t matches, Report* report) {
  const double q = static_cast<double>(std::max<uint64_t>(1, queries));
  const double occurrences =
      static_cast<double>(std::max<uint64_t>(1, candidates));
  report->Value("blocking.candidates_per_query", "count",
                static_cast<double>(candidates) / q, queries);
  report->Value("blocking.comparisons_per_query", "count",
                static_cast<double>(comparisons) / q, queries);
  // The service de-duplicates candidates by sort+unique before comparing,
  // so every skipped occurrence is a duplicate.
  report->Value("blocking.dedup_skip_frac", "frac",
                1.0 - static_cast<double>(comparisons) / occurrences,
                candidates);
  report->Value("blocking.match_frac", "frac",
                static_cast<double>(matches) /
                    static_cast<double>(std::max<uint64_t>(1, comparisons)),
                comparisons);
}

/// Encode as the per-request path pays it (serially, median of three
/// passes over `queries`) and the registry's InsertBatch from set-up.
void ReportServiceLayers(const ServeStack& stack, size_t registry_size,
                         const std::vector<Record>& queries, Report* report) {
  std::vector<double> encode_ns;
  for (int r = 0; r < 3; ++r) {
    const Clock::time_point t = Clock::now();
    Take(stack.service->encoder().EncodeAll(queries), "EncodeAll");
    encode_ns.push_back(SecondsSince(t) * 1e9 /
                        static_cast<double>(queries.size()));
  }
  report->Value("embedding.encode_ns_per_record", "ns", Median(encode_ns),
                queries.size());
  report->Value("index.insert_ns_per_record", "ns",
                stack.insert_s * 1e9 / static_cast<double>(registry_size),
                registry_size);
}

/// The wire's share of latency, Server-Timing stage medians and the
/// traced-vs-untraced comparison.  `untraced` and `traced` ran the same
/// read-only loop; `inproc_p50_us` is in-process Match on its queries.
void ReportWireLayers(const WireRun& untraced, const WireRun& traced,
                      double inproc_p50_us, double comparisons_per_query,
                      Report* report) {
  const double untraced_p50 = Median(untraced.latency_us);
  const double traced_p50 = Median(traced.latency_us);
  report->Value("net.overhead_p50_us", "us", untraced_p50 - inproc_p50_us,
                untraced.latency_us.size());
  report->Value("linkage.unattributed_frac", "frac",
                (untraced_p50 - inproc_p50_us) / untraced_p50,
                untraced.latency_us.size());
  report->Value("trace.overhead_frac", "frac", traced_p50 / untraced_p50 - 1,
                traced.latency_us.size());
  constexpr net::TimingStage kStages[] = {
      net::TimingStage::kQueue,      net::TimingStage::kEncode,
      net::TimingStage::kCandidates, net::TimingStage::kCompare,
      net::TimingStage::kInsert,     net::TimingStage::kJournal,
      net::TimingStage::kTotal};
  const char* const kStageNames[] = {"net.queue",        "service.encode",
                                     "service.candidates", "service.compare",
                                     "service.insert",   "io.journal",
                                     "server.total"};
  for (size_t s = 0; s < 7; ++s) {
    const std::vector<double>& samples =
        traced.stage_us[static_cast<size_t>(kStages[s])];
    if (samples.empty()) continue;
    const std::string file = std::string("stage_") + kStageNames[s];
    report->Samples(file, samples);
    report->Quantile(std::string("timing.") + kStageNames[s] + "_p50_us",
                     "us", file, 0.5);
    report->Quantile(std::string("timing.") + kStageNames[s] + "_p90_us",
                     "us", file, 0.9);
  }
  const std::vector<double>& candidates =
      traced.stage_us[static_cast<size_t>(net::TimingStage::kCandidates)];
  const std::vector<double>& compare =
      traced.stage_us[static_cast<size_t>(net::TimingStage::kCompare)];
  report->Value("blocking.probe_ns_per_query", "ns", Mean(candidates) * 1e3,
                candidates.size());
  report->Value("blocking.match_ns_per_comparison", "ns",
                Mean(compare) * 1e3 / std::max(1.0, comparisons_per_query),
                compare.size());
  const std::vector<double>& total =
      traced.stage_us[static_cast<size_t>(net::TimingStage::kTotal)];
  report->Check("server_timing_present", !total.empty(),
                "traced server attached no Server-Timing frames");
  report->Value("reconcile.server_total_share", "frac",
                Median(total) / traced_p50, total.size());
}

void ReportBudget(const ServeBudget& budget, Report* report) {
  report->Info("workload.threads",
               "connections=" + std::to_string(budget.connections) +
                   " server_workers=" +
                   std::to_string(budget.server_workers) +
                   " service_threads=" +
                   std::to_string(budget.service_threads));
}

void RunServeMatch(const Args& args, Report* report) {
  const size_t nproc = HostThreads();
  ServeBudget budget;
  budget.connections = 1;
  budget.server_workers = 1;
  budget.service_threads = nproc > 2 ? nproc - 2 : 1;
  ReportBudget(budget, report);
  ReportLayout(report);
  RunOnRequestCpu(false);

  const Inputs inputs = MakeInputs(Scheme::kPL, 200000, args.seed);
  const std::vector<Record>& registry = inputs.data.a;
  const std::vector<Record>& queries = inputs.data.b;
  if (args.setup) {
    TimedSetup(inputs.config, budget, registry, report);
    return;
  }
  ServeStack stack = StartStack(inputs.config, budget, registry);
  LinkageService& service = *stack.service;

  // The in-process batch answer is what every wire reply must equal.
  std::vector<IdPair> batch_pairs;
  const ServiceMetrics before = service.metrics();
  Require(service.MatchBatch(queries, &batch_pairs), "MatchBatch");
  const ServiceMetrics after = service.metrics();
  const uint64_t comparisons = after.comparisons - before.comparisons;
  const PairsByQuery expected = GroupByQuery(batch_pairs);
  report->Count("service.candidates",
                after.candidate_occurrences - before.candidate_occurrences);
  report->Count("service.comparisons", comparisons);
  report->Count("service.pairs", batch_pairs.size());

  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(args.seed ^ 0x5e77e5e7ULL);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }

  if (!args.trace) {
    const WireRun wire =
        ClosedLoopMatches(stack.server->port(), queries, order, expected,
                          budget.connections, args.seconds, false);
    report->Attempted(wire.ok + wire.failed);
    if (wire.failed != 0) {
      report->Fail("wire replies failed or differed from MatchBatch",
                   wire.failed);
    }
    report->Samples("wire_us", wire.latency_us);
    report->Samples("wire_rate", wire.WindowRates());
    report->Quantile("throughput_per_s", "1/s", "wire_rate", 0.5);
    report->Quantile("latency_p50_us", "us", "wire_us", 0.5);
    report->Quantile("latency_p90_us", "us", "wire_us", 0.9);
    report->Quantile("net.latency_p99_us", "us", "wire_us", 0.99);
    ReportQuality(batch_pairs, inputs.truth, comparisons, registry.size(),
                  queries.size(), inputs.config, true, report);
    report->Value("peak_rss_mb", "MB", PeakRssMb(), 1);
    return;
  }

  ReportServiceLayers(stack, registry.size(), queries, report);

  const InProcessRun inproc = InProcessMatches(service, queries);
  report->Attempted(queries.size());
  report->Check("inproc_pairs_equal_batch",
                Sorted(inproc.pairs) == Sorted(batch_pairs),
                "in-process Match differs from MatchBatch");
  report->Samples("inproc_us", inproc.latency_us);
  report->Quantile("inproc.match_p50_us", "us", "inproc_us", 0.5);
  report->Quantile("inproc.match_p90_us", "us", "inproc_us", 0.9);
  ReportFunnel(queries.size(), inproc.candidates, inproc.comparisons,
               inproc.matches, report);

  telemetry::TraceSinkOptions sink_options;
  sink_options.sample_every = 1;
  telemetry::TraceSink sink(sink_options);
  std::unique_ptr<net::NetServer> traced_server =
      StartServer(&service, budget, &sink, "traced NetServer");
  const double leg_s = std::max(2.0, args.seconds / 3);
  const WireRun untraced =
      ClosedLoopMatches(stack.server->port(), queries, order, expected,
                        budget.connections, leg_s, false);
  const WireRun traced =
      ClosedLoopMatches(traced_server->port(), queries, order, expected,
                        budget.connections, leg_s, true);
  traced_server->Shutdown();
  report->Attempted(untraced.ok + untraced.failed + traced.ok + traced.failed);
  if (untraced.failed + traced.failed != 0) {
    report->Fail("wire replies failed or differed from MatchBatch",
                 untraced.failed + traced.failed);
  }
  ReportWireLayers(untraced, traced, Median(inproc.latency_us),
                   static_cast<double>(inproc.comparisons) /
                       static_cast<double>(queries.size()),
                   report);
}

// --- serve_mixed -----------------------------------------------------------

enum class OpKind { kMatch, kInsert, kUpdate, kDelete };

struct Op {
  OpKind kind = OpKind::kMatch;
  size_t query = 0;   // kMatch: index into the query set
  Record record;      // kInsert / kUpdate
  RecordId id = 0;    // kDelete
};

/// Per-connection schedules plus the state they leave behind.
struct MixedPlan {
  std::vector<std::vector<Op>> ops;
  /// id -> record after every op has run (the surviving registry).
  std::map<RecordId, Record> final_state;
  uint64_t writes = 0;
  uint64_t deletes = 0;
};

/// A seeded 70/10/10/10 match/insert/update/delete mix.  Connection c
/// owns registry ids with index % connections == c plus the ids it
/// inserts, so no two connections touch the same record and the final
/// state does not depend on how their requests interleave.  An update
/// re-perturbs the entity the record came from (a correction), so ground
/// truth survives it; inserts are new entities.
MixedPlan PlanMixed(const Inputs& inputs, size_t connections,
                    size_t total_ops, uint64_t seed) {
  const NcvrGenerator generator = Take(NcvrGenerator::Create(), "generator");
  MixedPlan plan;
  plan.ops.resize(connections);
  std::map<RecordId, Record> origin;  // id -> entity the record stands for
  for (const Record& record : inputs.data.a) {
    plan.final_state[record.id] = record;
    origin[record.id] = record;
  }
  for (size_t c = 0; c < connections; ++c) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + c + 1);
    std::vector<RecordId> live;
    for (size_t i = c; i < inputs.data.a.size(); i += connections) {
      live.push_back(inputs.data.a[i].id);
    }
    RecordId next_insert = (RecordId{1} << 40) + (RecordId{c} << 32);
    const size_t count = total_ops / connections;
    for (size_t k = 0; k < count; ++k) {
      const uint64_t roll = rng.Below(100);
      Op op;
      if (roll < 70) {
        op.kind = OpKind::kMatch;
        op.query = rng.Below(inputs.data.b.size());
      } else if (roll < 80 || live.empty()) {
        op.kind = OpKind::kInsert;
        op.record = generator.Generate(next_insert++, rng);
        live.push_back(op.record.id);
        origin[op.record.id] = op.record;
        plan.final_state[op.record.id] = op.record;
      } else if (roll < 90) {
        op.kind = OpKind::kUpdate;
        const RecordId id = live[rng.Below(live.size())];
        op.record = Take(Perturbator::Apply(origin[id],
                                            PerturbationScheme::Light(), rng,
                                            nullptr),
                         "perturb");
        op.record.id = id;
        plan.final_state[id] = op.record;
      } else {
        op.kind = OpKind::kDelete;
        const size_t slot = rng.Below(live.size());
        op.id = live[slot];
        live[slot] = live.back();
        live.pop_back();
        plan.final_state.erase(op.id);
        ++plan.deletes;
      }
      if (op.kind != OpKind::kMatch) ++plan.writes;
      plan.ops[c].push_back(std::move(op));
    }
  }
  return plan;
}

WireRun RunMixedOps(uint16_t port, const MixedPlan& plan,
                    const std::vector<Record>& queries, bool traced) {
  return RunConnections(
      port, plan.ops.size(),
      [&](size_t c, net::NetClient& client, WireRun& run,
          Clock::time_point start) {
        std::vector<IdPair> pairs;
        for (const Op& op : plan.ops[c]) {
          if (traced) client.set_trace(telemetry::GenerateTraceId());
          const Clock::time_point t = Clock::now();
          Status status;
          switch (op.kind) {
            case OpKind::kMatch:
              status = client.Match(queries[op.query], &pairs);
              break;
            case OpKind::kInsert:
              status = client.Insert(op.record);
              break;
            case OpKind::kUpdate:
              status = client.Update(op.record);
              break;
            case OpKind::kDelete:
              status = client.Delete(op.id);
              break;
          }
          const double us = MicrosSince(t);
          if (status.ok()) {
            run.Record(op.kind != OpKind::kMatch, us, start, client);
          } else {
            ++run.failed;
          }
        }
      });
}

/// Value of `"key": <number>` (or of `field` inside `"key": {...}`) in
/// the /stats JSON; -1 when absent.
double StatsNumber(const std::string& json, const std::string& key,
                   const std::string& field = "") {
  size_t pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return -1;
  if (!field.empty()) {
    pos = json.find("\"" + field + "\":", pos);
    if (pos == std::string::npos) return -1;
    pos += field.size() + 3;
  } else {
    pos += key.size() + 3;
  }
  return std::strtod(json.c_str() + pos, nullptr);
}

void RunServeMixed(const Args& args, Report* report) {
  const size_t nproc = HostThreads();
  ServeBudget budget;
  budget.connections = 2;
  budget.server_workers = 1;
  budget.service_threads = nproc > 3 ? nproc - 3 : 1;
  ReportBudget(budget, report);
  ReportLayout(report);
  RunOnRequestCpu(false);

  const size_t total_ops =
      static_cast<size_t>(args.seconds * kMixedOpsPerSecond);
  // Deletes are 10% of the mix; a compaction fires when tombstones reach
  // a third of the live records (dead ratio 0.25).
  const double ratio = LinkageServiceOptions().compaction_dead_ratio;
  const size_t registry_size = static_cast<size_t>(
      0.1 * static_cast<double>(total_ops) / kMixedCompactionCycles *
      (1 - ratio) / ratio);
  const Inputs inputs = MakeInputs(Scheme::kPL, registry_size, args.seed);
  if (args.setup) {
    TimedSetup(inputs.config, budget, inputs.data.a, report);
    return;
  }
  const std::vector<Record>& queries = inputs.data.b;
  const MixedPlan plan =
      PlanMixed(inputs, budget.connections, total_ops, args.seed);
  report->Info("workload.shape",
               "registry=" + std::to_string(registry_size) +
                   " ops=" + std::to_string(total_ops) +
                   " journal=fsync_every 0 (page cache, no device flush)");

  ServeStack stack = StartStack(inputs.config, budget, inputs.data.a);
  LinkageService& service = *stack.service;
  const std::string journal_path = args.out + "/journal.cbvj";
  std::filesystem::remove(journal_path);
  JournalOptions journal_options;
  journal_options.fsync_every = 0;
  service.AttachJournal(std::shared_ptr<Journal>(
      Take(Journal::Open(journal_path, journal_options), "journal")));
  service.StartBackgroundCompaction();

  telemetry::TraceSinkOptions sink_options;
  sink_options.sample_every = 1;
  telemetry::TraceSink sink(sink_options);
  std::unique_ptr<net::NetServer> traced_server;
  if (args.trace) {
    traced_server =
        StartServer(&service, budget, &sink, "traced NetServer");
  }
  const uint16_t port =
      args.trace ? traced_server->port() : stack.server->port();

  const WireRun run = RunMixedOps(port, plan, queries, args.trace);
  report->Attempted(run.ok + run.failed);
  if (run.failed != 0) report->Fail("mixed operations failed", run.failed);

  // Let the compactor finish: it runs while tombstones are at or above
  // the dead ratio, so once they are below it no cycle is pending.
  const Clock::time_point drain = Clock::now();
  while (SecondsSince(drain) < 30) {
    const ServiceMetrics m = service.metrics();
    const double dead = static_cast<double>(m.tombstones);
    if (dead < ratio * (dead + static_cast<double>(m.live_records))) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::string stats_json;
  {
    std::unique_ptr<net::NetClient> client =
        Take(net::NetClient::Connect("127.0.0.1", port), "stats client");
    Require(client->Stats(&stats_json), "stats");
  }
  const double compactions = StatsNumber(stats_json, "compaction_runs_total");
  const double pause_max =
      StatsNumber(stats_json, "compaction_pause_us", "max");
  report->Count("service.compactions", static_cast<uint64_t>(compactions));
  report->Value("service.compactions", "count", compactions, 1);
  report->Value("service.compaction_pause_max_us", "us", pause_max,
                static_cast<uint64_t>(std::max(0.0, compactions)));
  const double expected_cycles = std::floor(kMixedCompactionCycles);
  report->Check("compaction_cycles_as_planned", compactions == expected_cycles,
                std::to_string(compactions) + " compactions, planned " +
                    std::to_string(expected_cycles));
  const uint64_t journal_bytes =
      std::filesystem::file_size(journal_path) - kJournalHeaderBytes;
  report->Count("io.journal_bytes", journal_bytes);
  report->Value("io.journal_bytes_per_write", "B",
                static_cast<double>(journal_bytes) /
                    static_cast<double>(std::max<uint64_t>(1, plan.writes)),
                plan.writes);

  // Compacted, the served state equals a fresh build over the surviving
  // records (before compaction, blocking keys of replaced values may still
  // surface extra candidates).  Every query goes over the wire and into a
  // freshly built in-process service.
  Require(service.Compact(), "Compact");
  const std::vector<Record>& probe = queries;
  std::vector<IdPair> wire_pairs;
  {
    std::unique_ptr<net::NetClient> client =
        Take(net::NetClient::Connect("127.0.0.1", port), "probe client");
    std::vector<IdPair> pairs;
    for (const Record& query : probe) {
      Require(client->Match(query, &pairs), "probe Match");
      wire_pairs.insert(wire_pairs.end(), pairs.begin(), pairs.end());
    }
  }
  std::vector<Record> survivors;
  survivors.reserve(plan.final_state.size());
  for (const auto& [id, record] : plan.final_state) survivors.push_back(record);
  LinkageServiceOptions fresh_options;
  fresh_options.execution =
      ExecutionOptions::WithThreads(budget.service_threads);
  std::unique_ptr<LinkageService> fresh =
      Take(LinkageService::Create(inputs.config, fresh_options), "fresh");
  Require(fresh->InsertBatch(survivors), "fresh InsertBatch");
  std::vector<IdPair> fresh_pairs;
  Require(fresh->MatchBatch(probe, &fresh_pairs), "fresh MatchBatch");
  const ServiceMetrics fresh_metrics = fresh->metrics();
  report->Attempted(probe.size());
  report->Check("served_state_equals_fresh_build",
                Sorted(wire_pairs) == Sorted(fresh_pairs) &&
                    service.size() == survivors.size(),
                "probe pairs over the wire differ from a fresh build");
  report->Count("probe.candidates", fresh_metrics.candidate_occurrences);
  report->Count("probe.comparisons", fresh_metrics.comparisons);
  report->Count("probe.pairs", fresh_pairs.size());

  report->Samples("match_us", run.latency_us);
  report->Samples("write_us", run.write_us);
  report->Quantile("write_p50_us", "us", "write_us", 0.5);
  report->Quantile("write_p90_us", "us", "write_us", 0.9);

  if (!args.trace) {
    std::unordered_set<RecordId> probed;
    for (const Record& query : probe) probed.insert(query.id);
    PairSet truth;
    for (const IdPair& pair : inputs.truth) {
      if (plan.final_state.count(pair.a_id) != 0 &&
          probed.count(pair.b_id) != 0) {
        truth.insert(pair);
      }
    }
    report->Samples("mixed_rate", run.WindowRates());
    report->Quantile("throughput_per_s", "1/s", "mixed_rate", 0.5);
    report->Quantile("latency_p50_us", "us", "match_us", 0.5);
    report->Quantile("latency_p90_us", "us", "match_us", 0.9);
    report->Quantile("net.latency_p99_us", "us", "match_us", 0.99);
    // Updates re-perturb a record, which can put a true pair beyond the
    // thresholds, so the 1 - delta bound does not apply here.
    ReportQuality(fresh_pairs, truth, fresh_metrics.comparisons,
                  survivors.size(), probe.size(), inputs.config, false,
                  report);
    report->Value("peak_rss_mb", "MB", PeakRssMb(), 1);
    return;
  }

  ReportServiceLayers(stack, registry_size, queries, report);
  ReportFunnel(probe.size(), fresh_metrics.candidate_occurrences,
               fresh_metrics.comparisons, fresh_metrics.matches, report);

  const InProcessRun inproc = InProcessMatches(service, probe);
  report->Samples("inproc_us", inproc.latency_us);
  report->Quantile("inproc.match_p50_us", "us", "inproc_us", 0.5);
  report->Quantile("inproc.match_p90_us", "us", "inproc_us", 0.9);

  // Tracing overhead on the read path of the final state: the same
  // closed loop against the untraced and the traced server.
  const PairsByQuery expected = GroupByQuery(fresh_pairs);
  std::vector<size_t> order(probe.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const double leg_s = std::max(2.0, args.seconds / 4);
  const WireRun untraced = ClosedLoopMatches(
      stack.server->port(), probe, order, expected, 1, leg_s, false);
  const WireRun traced = ClosedLoopMatches(traced_server->port(), probe,
                                           order, expected, 1, leg_s, true);
  report->Attempted(untraced.ok + untraced.failed + traced.ok + traced.failed);
  if (untraced.failed + traced.failed != 0) {
    report->Fail("post-run wire replies differ from the fresh build",
                 untraced.failed + traced.failed);
  }
  // Stage timings come from the traced mixed run itself, so write stages
  // (service.insert, io.journal) are covered too.
  WireRun mixed_traced = run;
  mixed_traced.latency_us = traced.latency_us;
  ReportWireLayers(untraced, mixed_traced, Median(inproc.latency_us),
                   static_cast<double>(fresh_metrics.comparisons) /
                       static_cast<double>(probe.size()),
                   report);
  traced_server->Shutdown();
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--setup") {
      args->setup = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->out.empty() &&
         args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_workload --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--setup <0|1>] --out <dir>\n");
    return 2;
  }
  Report report(args.out);
  RecordFingerprint(&report);
  const CpuTimes cpu_start = ReadCpuTimes();
  if (args.setup && (args.workload == "batch_pl_200k" ||
                     args.workload == "batch_ph_attr")) {
    RunBatchSetup(
        args.workload == "batch_pl_200k" ? Scheme::kPL : Scheme::kPH,
        &report);
  } else if (args.workload == "batch_pl_200k") {
    RunBatch(args, Scheme::kPL, 200000, &report);
  } else if (args.workload == "batch_ph_attr") {
    RunBatch(args, Scheme::kPH, 15000, &report);
  } else if (args.workload == "serve_match") {
    RunServeMatch(args, &report);
  } else if (args.workload == "serve_mixed") {
    RunServeMixed(args, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const CpuTimes cpu_end = ReadCpuTimes();
  const double steal =
      cpu_start.ok && cpu_end.ok && cpu_end.total > cpu_start.total
          ? static_cast<double>(cpu_end.steal - cpu_start.steal) /
                static_cast<double>(cpu_end.total - cpu_start.total)
          : 0.0;
  report.Value("host.steal_frac", "frac", steal, 1);
  if (!report.Write()) {
    std::fprintf(stderr, "perfbench: cannot write %s/report.json\n",
                 args.out.c_str());
    return 2;
  }
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace cbvlink

int main(int argc, char** argv) { return cbvlink::perfbench::Main(argc, argv); }
