// Service throughput: concurrent insert / batch-query scaling with the
// thread count.  The same NCVR registry is indexed and the same query
// stream matched at 1..8 worker threads; per-row speedups are relative
// to the single-threaded run.  The acceptance bar for the serving layer
// is >= 3x batch query throughput at 8 threads.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stopwatch.h"
#include "src/service/linkage_service.h"

namespace cbvlink {
namespace {

void Run() {
  const size_t n = RecordsFromEnv(20000);
  bench::Banner("Service: insert/query throughput vs worker threads");
  if (std::getenv("CBVLINK_FAILPOINTS") != nullptr) {
    std::printf("NOTE: CBVLINK_FAILPOINTS is set — fault injection is "
                "active; timings below are not representative.\n");
  }

  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  bench::DieOnError(gen.ok() ? Status::OK() : gen.status(), "generator");

  LinkagePairOptions data_options;
  data_options.num_records = n;
  data_options.seed = 42;
  Result<LinkagePair> data = BuildLinkagePair(
      gen.value(), PerturbationScheme::Light(), data_options);
  bench::DieOnError(data.ok() ? Status::OK() : data.status(), "dataset");
  const std::vector<Record>& registry = data.value().a;
  const std::vector<Record>& queries = data.value().b;

  std::printf("registry %zu records, %zu queries (NCVR, PL)\n\n",
              registry.size(), queries.size());
  std::printf("%-8s %14s %9s %14s %9s %10s\n", "threads", "insert(rec/s)",
              "speedup", "query(q/s)", "speedup", "matches");

  std::vector<std::pair<std::string, double>> series;
  series.emplace_back("records", static_cast<double>(registry.size()));
  series.emplace_back("queries", static_cast<double>(queries.size()));

  double insert_base = 0;
  double query_base = 0;
  size_t matches_base = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    LinkageServiceOptions options;
    options.execution = ExecutionOptions::WithThreads(threads);
    Result<std::unique_ptr<LinkageService>> service = LinkageService::Create(
        bench::CbvHbFor(gen.value().schema(), bench::Scheme::kPL, 7),
        options, registry);
    bench::DieOnError(
        service.ok() ? Status::OK() : service.status(), "service");

    Stopwatch insert_watch;
    bench::DieOnError(service.value()->InsertBatch(registry), "insert");
    const double insert_rate =
        static_cast<double>(registry.size()) / insert_watch.ElapsedSeconds();

    std::vector<IdPair> pairs;
    Stopwatch query_watch;
    bench::DieOnError(service.value()->MatchBatch(queries, &pairs), "query");
    const double query_rate =
        static_cast<double>(queries.size()) / query_watch.ElapsedSeconds();

    if (threads == 1) {
      insert_base = insert_rate;
      query_base = query_rate;
      matches_base = pairs.size();
    } else if (pairs.size() != matches_base) {
      std::fprintf(stderr,
                   "FATAL: %zu threads found %zu matches, expected %zu\n",
                   threads, pairs.size(), matches_base);
      std::exit(1);
    }
    std::printf("%-8zu %14.0f %8.2fx %14.0f %8.2fx %10zu\n", threads,
                insert_rate, insert_rate / insert_base, query_rate,
                query_rate / query_base, pairs.size());

    const std::string prefix = StrFormat("threads_%zu.", threads);
    series.emplace_back(prefix + "insert_rate", insert_rate);
    series.emplace_back(prefix + "insert_speedup", insert_rate / insert_base);
    series.emplace_back(prefix + "query_rate", query_rate);
    series.emplace_back(prefix + "query_speedup", query_rate / query_base);
    series.emplace_back(prefix + "matches",
                        static_cast<double>(pairs.size()));
  }
  bench::EmitBenchJson("BENCH_service.json", series);
  std::printf(
      "\nReading: both phases parallelize over the pool. Inserts encode and "
      "compute their\nblocking keys before taking the index's one writer "
      "lock, and queries take it\nshared, so batch matching should scale "
      "near-linearly until probe work\nsaturates memory bandwidth.\n");
}

}  // namespace
}  // namespace cbvlink

int main() {
  cbvlink::Run();
  return 0;
}
