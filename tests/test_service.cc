#include "src/service/linkage_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "src/common/failpoint.h"
#include "src/common/hamming_kernels.h"
#include "src/common/hashing.h"
#include "src/datagen/dataset.h"
#include "src/datagen/generators.h"
#include "src/linkage/cbv_hb_linker.h"
#include "src/linkage/online_linker.h"
#include "src/telemetry/metrics.h"
#include "tests/legacy_snapshot.h"

namespace cbvlink {
namespace {

CbvHbConfig BaseConfig(const Schema& schema) {
  CbvHbConfig config;
  config.schema = schema;
  config.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                           Rule::Pred(2, 4), Rule::Pred(3, 4)});
  config.record_K = 30;
  config.record_theta = 4;
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  config.seed = 5;
  return config;
}

std::vector<Record> GenerateRecords(const NcvrGenerator& gen, size_t n,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.push_back(gen.Generate(i, rng));
  }
  return records;
}

std::vector<IdPair> Sorted(std::vector<IdPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Order-sensitive hash of a pair list, for the pinned-pair test.
uint64_t HashPairs(const std::vector<IdPair>& pairs) {
  uint64_t hash = Mix64(pairs.size());
  for (const IdPair& pair : pairs) {
    hash = HashCombine(HashCombine(hash, pair.a_id), pair.b_id);
  }
  return hash;
}

/// The replies of `service` to `queries`, one list per query.
std::vector<std::vector<IdPair>> Replies(const LinkageService& service,
                                         const std::vector<Record>& queries) {
  std::vector<std::vector<IdPair>> replies(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(service.Match(queries[i], &replies[i]).ok());
  }
  return replies;
}

/// `records` as queries under fresh ids (offset + id).
std::vector<Record> AsQueries(const std::vector<Record>& records,
                              RecordId offset) {
  std::vector<Record> queries = records;
  for (Record& q : queries) q.id += offset;
  return queries;
}

TEST(ServiceTest, RejectsAttributeLevelBlocking) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  config.attribute_level_blocking = true;
  config.attribute_K = {5, 5, 10, 5};
  EXPECT_FALSE(LinkageService::Create(std::move(config)).ok());
}

TEST(ServiceTest, NeedsCalibrationOrExplicitB) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  config.expected_qgrams.clear();
  EXPECT_FALSE(LinkageService::Create(config).ok());
  const std::vector<Record> sample = GenerateRecords(gen.value(), 50, 1);
  EXPECT_TRUE(LinkageService::Create(config, {}, sample).ok());
}

TEST(ServiceTest, InsertThenMatchFindsDuplicates) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(service.ok());

  const std::vector<Record> records = GenerateRecords(gen.value(), 2, 1);
  for (const Record& r : records) {
    ASSERT_TRUE(service.value()->Insert(r).ok());
  }
  EXPECT_EQ(service.value()->size(), 2u);

  Record query = records[0];
  query.id = 100;
  std::vector<IdPair> out;
  ASSERT_TRUE(service.value()->Match(query, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a_id, records[0].id);
  EXPECT_EQ(out[0].b_id, 100u);

  const ServiceMetrics metrics = service.value()->metrics();
  EXPECT_EQ(metrics.inserts, 2u);
  EXPECT_EQ(metrics.queries, 1u);
  EXPECT_EQ(metrics.matches, 1u);
  EXPECT_GT(metrics.comparisons, 0u);
  EXPECT_GT(metrics.query_seconds, 0.0);
  EXPECT_GT(metrics.QueriesPerSecond(), 0.0);
}

TEST(ServiceTest, WallClockQpsUsesWallSpanNotCpuSeconds) {
  // With T batch workers, summed per-thread busy time is ~T times the
  // wall span; QueriesPerSecond() must divide by the latter.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkageServiceOptions options;
  options.execution = ExecutionOptions::WithThreads(4);
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(BaseConfig(gen.value().schema()), options);
  ASSERT_TRUE(service.ok());

  const std::vector<Record> registry = GenerateRecords(gen.value(), 200, 12);
  ASSERT_TRUE(service.value()->InsertBatch(registry).ok());
  std::vector<IdPair> out;
  ASSERT_TRUE(service.value()->MatchBatch(registry, &out).ok());

  const ServiceMetrics metrics = service.value()->metrics();
  EXPECT_GT(metrics.query_wall_seconds, 0.0);
  EXPECT_GT(metrics.insert_wall_seconds, 0.0);
  EXPECT_GT(metrics.query_seconds, 0.0);
  // The two rates divide by different denominators: QueriesPerSecond()
  // by the wall span, PerThreadQueriesPerSecond() by summed busy time.
  // (The absolute values are timing-dependent; the definitions are not.)
  EXPECT_DOUBLE_EQ(
      metrics.QueriesPerSecond(),
      static_cast<double>(metrics.queries) / metrics.query_wall_seconds);
  EXPECT_DOUBLE_EQ(
      metrics.PerThreadQueriesPerSecond(),
      static_cast<double>(metrics.queries) / metrics.query_seconds);
}

TEST(ServiceTest, SkippedRowsCountedInMetrics) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(service.ok());
  service.value()->RecordSkippedRows(2);
  service.value()->RecordSkippedRows(1);
  EXPECT_EQ(service.value()->metrics().skipped_rows, 3u);
}

TEST(ServiceTest, FillTelemetryExportsGaugesAndFunnelCounters) {
  telemetry::Registry registry;  // private registry: gauge isolation
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(service.ok());

  const std::vector<Record> records = GenerateRecords(gen.value(), 20, 13);
  ASSERT_TRUE(service.value()->InsertBatch(records).ok());
  std::vector<IdPair> out;
  ASSERT_TRUE(service.value()->Match(records[0], &out).ok());

  service.value()->FillTelemetry(&registry);
  EXPECT_EQ(registry.GetGauge("service_records")->Value(), 20.0);
  EXPECT_EQ(registry.GetGauge("index_live")->Value(), 20.0);
  EXPECT_GT(registry.GetGauge("lsh_tables")->Value(), 0.0);
  // Per-table gauges exist for table 0 and the occupancy histogram
  // covers every bucket exactly once.
  EXPECT_GT(registry
                .GetGauge(telemetry::LabeledName("lsh_table_buckets",
                                                 "table", "0"))
                ->Value(),
            0.0);
  double occupied = 0;
  double buckets = 0;
  for (size_t i = 0; i < 16; ++i) {
    occupied += registry
                    .GetGauge(telemetry::LabeledName(
                        "lsh_bucket_occupancy", "size_log2",
                        std::to_string(i)))
                    ->Value();
  }
  const double tables = registry.GetGauge("lsh_tables")->Value();
  for (size_t t = 0; t < static_cast<size_t>(tables); ++t) {
    buckets += registry
                   .GetGauge(telemetry::LabeledName("lsh_table_buckets",
                                                    "table",
                                                    std::to_string(t)))
                   ->Value();
  }
  EXPECT_EQ(occupied, buckets);

  // The match funnel lives in the global registry (resolved at Init).
  const ServiceMetrics metrics = service.value()->metrics();
  EXPECT_GT(metrics.candidate_occurrences, 0u);
  EXPECT_GT(metrics.comparisons, 0u);
  EXPECT_GE(metrics.candidate_occurrences, metrics.matches);
}

double Gauge(telemetry::Registry& registry, const char* name,
             const char* label_key = nullptr, size_t label = 0) {
  return registry
      .GetGauge(label_key == nullptr
                    ? std::string(name)
                    : telemetry::LabeledName(name, label_key,
                                             std::to_string(label)))
      ->Value();
}

TEST(ServiceTest, FillTelemetryReportsPerTableHealthUnderBucketCap) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  {
    telemetry::Registry registry;
    LinkageServiceOptions options;
    options.max_bucket_size = 2;
    Result<std::unique_ptr<LinkageService>> service =
        LinkageService::Create(BaseConfig(gen.value().schema()), options);
    ASSERT_TRUE(service.ok());
    // Identical records share one bucket per table, capped at 2 entries.
    Rng rng(4);
    const Record entity = gen.value().Generate(0, rng);
    for (RecordId id = 0; id < 3; ++id) {
      Record copy = entity;
      copy.id = id;
      ASSERT_TRUE(service.value()->Insert(copy).ok());
    }
    service.value()->FillTelemetry(&registry);
    const size_t L = service.value()->blocking_groups();
    ASSERT_EQ(Gauge(registry, "lsh_tables"), static_cast<double>(L));
    for (size_t l = 0; l < L; ++l) {
      EXPECT_EQ(Gauge(registry, "lsh_table_buckets", "table", l), 1.0);
      EXPECT_EQ(Gauge(registry, "lsh_table_entries", "table", l), 2.0);
      EXPECT_EQ(Gauge(registry, "lsh_table_max_bucket", "table", l), 2.0);
      EXPECT_DOUBLE_EQ(Gauge(registry, "lsh_table_mean_bucket", "table", l),
                       2.0);
    }
    EXPECT_EQ(Gauge(registry, "lsh_overflowed_buckets"),
              static_cast<double>(L));
    EXPECT_EQ(Gauge(registry, "lsh_dropped_entries"), static_cast<double>(L));
    EXPECT_EQ(service.value()->metrics().dropped_entries, L);
    // Every bucket has size 2 -> log2 slot 1.
    EXPECT_EQ(Gauge(registry, "lsh_bucket_occupancy", "size_log2", 1),
              static_cast<double>(L));
    EXPECT_EQ(Gauge(registry, "lsh_bucket_occupancy", "size_log2", 0), 0.0);
  }
  {
    // Uncapped: per-table totals add up to the records times the tables,
    // and the occupancy histogram counts every bucket once.
    telemetry::Registry registry;
    Result<std::unique_ptr<LinkageService>> service =
        LinkageService::Create(BaseConfig(gen.value().schema()));
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE(
        service.value()->InsertBatch(GenerateRecords(gen.value(), 100, 11))
            .ok());
    service.value()->FillTelemetry(&registry);
    const size_t L = service.value()->blocking_groups();
    double entries = 0;
    double buckets = 0;
    double max_bucket = 0;
    double occupied = 0;
    for (size_t l = 0; l < L; ++l) {
      entries += Gauge(registry, "lsh_table_entries", "table", l);
      buckets += Gauge(registry, "lsh_table_buckets", "table", l);
      max_bucket = std::max(
          max_bucket, Gauge(registry, "lsh_table_max_bucket", "table", l));
    }
    for (size_t bin = 0; bin < 16; ++bin) {
      occupied += Gauge(registry, "lsh_bucket_occupancy", "size_log2", bin);
    }
    EXPECT_EQ(entries, 100.0 * static_cast<double>(L));
    EXPECT_EQ(occupied, buckets);
    EXPECT_GE(max_bucket, 1.0);
    EXPECT_EQ(Gauge(registry, "lsh_dropped_entries"), 0.0);
    EXPECT_EQ(Gauge(registry, "lsh_overflowed_buckets"), 0.0);
  }
}

TEST(ServiceTest, MatchBatchEqualsAMatchLoopAtAnyThreadCount) {
  // MatchBatch merges its chunks in record order, so its output is a
  // Match loop's, pair for pair, whatever the pool size; a malformed
  // record fails the call with its own error and leaves `out` as it was.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions data_options;
  data_options.num_records = 2000;
  data_options.seed = 4;
  Result<LinkagePair> data = BuildLinkagePair(
      gen.value(), PerturbationScheme::Light(), data_options);
  ASSERT_TRUE(data.ok());
  const std::vector<Record>& queries = data.value().b;

  // Two malformed queries; the earlier one's error must win at any
  // thread count, even when a later chunk fails first.
  std::vector<Record> broken = queries;
  broken[1000].fields.pop_back();
  broken[1900].fields.push_back("X");

  // Both calls append, so `out` starts with a pair of its own.
  const IdPair sentinel{1, 2};
  std::vector<IdPair> loop = {sentinel};
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(threads);
    LinkageServiceOptions options;
    options.execution = ExecutionOptions::WithThreads(threads);
    Result<std::unique_ptr<LinkageService>> service =
        LinkageService::Create(BaseConfig(gen.value().schema()), options);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE(service.value()->InsertBatch(data.value().a).ok());

    if (loop.size() == 1) {
      for (const Record& q : queries) {
        ASSERT_TRUE(service.value()->Match(q, &loop).ok());
      }
      ASSERT_GT(loop.size(), queries.size() / 4)
          << "test needs a non-trivial workload";
    }
    std::vector<IdPair> batch = {sentinel};
    ASSERT_TRUE(service.value()->MatchBatch(queries, &batch).ok());
    EXPECT_EQ(batch, loop);

    std::vector<IdPair> scratch;
    const Status expected = service.value()->Match(broken[1000], &scratch);
    ASSERT_FALSE(expected.ok());
    std::vector<IdPair> untouched = {sentinel};
    const Status st = service.value()->MatchBatch(broken, &untouched);
    EXPECT_EQ(st.ToString(), expected.ToString());
    EXPECT_EQ(untouched, std::vector<IdPair>{sentinel});
  }
}

TEST(ServiceTest, MatchEqualsBatchLinkUnderEveryKernelSet) {
  // The service and the batch linker are separate match paths (gathered
  // contiguous rows vs arena rows by dense index) over the same compiled
  // rule.  With the PL rule, explicit expected q-gram counts and one seed
  // they build the same encoder and blocking tables, so the served pairs
  // must equal Link's, under every kernel set this host can run.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions data_options;
  data_options.num_records = 3000;
  data_options.seed = 3;
  Result<LinkagePair> data = BuildLinkagePair(
      gen.value(), PerturbationScheme::Light(), data_options);
  ASSERT_TRUE(data.ok());
  const CbvHbConfig config = BaseConfig(gen.value().schema());

  std::vector<const KernelSet*> sets = {&ScalarKernels()};
  if (Avx2Kernels() != nullptr && CpuSupportsAvx2()) {
    sets.push_back(Avx2Kernels());
  }
  if (Avx512Kernels() != nullptr && CpuSupportsAvx512Popcnt()) {
    sets.push_back(Avx512Kernels());
  }
  struct ScopedForcedKernels {
    explicit ScopedForcedKernels(const KernelSet* k) { ForceKernelsForTest(k); }
    ~ScopedForcedKernels() { ForceKernelsForTest(nullptr); }
  };
  for (const KernelSet* kernels : sets) {
    ScopedForcedKernels force(kernels);
    Result<CbvHbLinker> linker = CbvHbLinker::Create(config);
    ASSERT_TRUE(linker.ok());
    Result<LinkageResult> linked =
        linker.value().Link(data.value().a, data.value().b);
    ASSERT_TRUE(linked.ok());

    Result<std::unique_ptr<LinkageService>> service =
        LinkageService::Create(config);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE(service.value()->InsertBatch(data.value().a).ok());
    std::vector<IdPair> served;
    for (const Record& query : data.value().b) {
      ASSERT_TRUE(service.value()->Match(query, &served).ok());
    }
    ASSERT_GT(linked.value().matches.size(), data_options.num_records / 4)
        << "test needs a non-trivial workload";
    EXPECT_EQ(Sorted(std::move(served)),
              Sorted(std::move(linked.value().matches)))
        << kernels->name;
  }
}

TEST(ServiceTest, ConcurrentMatchBatchCallsShareThePool) {
  // Batch calls used to serialize on a service-level mutex because
  // ParallelFor could not take concurrent callers; with the per-call
  // completion latch they run the pool together.  Each caller must still
  // get exactly its own results.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkageServiceOptions options;
  options.execution = ExecutionOptions::WithThreads(4);
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(BaseConfig(gen.value().schema()), options);
  ASSERT_TRUE(created.ok());
  LinkageService& service = *created.value();

  const std::vector<Record> registry = GenerateRecords(gen.value(), 120, 7);
  ASSERT_TRUE(service.InsertBatch(registry).ok());

  constexpr size_t kCallers = 4;
  const size_t per_caller = registry.size() / kCallers;
  std::vector<std::vector<IdPair>> results(kCallers);
  // vector<bool> packs bits; distinct int elements keep the per-thread
  // writes race-free.
  std::vector<int> ok(kCallers, 0);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::vector<Record> queries;
      for (size_t i = c * per_caller; i < (c + 1) * per_caller; ++i) {
        Record q = registry[i];
        q.id = 5000 + i;
        queries.push_back(std::move(q));
      }
      ok[c] = service.MatchBatch(queries, &results[c]).ok() ? 1 : 0;
    });
  }
  for (std::thread& t : callers) t.join();

  for (size_t c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(ok[c]);
    for (size_t i = c * per_caller; i < (c + 1) * per_caller; ++i) {
      const IdPair expected{registry[i].id, 5000 + i};
      EXPECT_TRUE(std::find(results[c].begin(), results[c].end(), expected) !=
                  results[c].end())
          << "caller " << c << " missed its query " << i;
    }
  }
}

TEST(ServiceTest, ConcurrentMatchAndInsertInterleaving) {
  // Eight threads stream duplicate arrivals of disjoint base entities
  // concurrently; every arrival must link back to its pre-inserted base.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(created.ok());
  LinkageService& service = *created.value();

  const std::vector<Record> base = GenerateRecords(gen.value(), 80, 3);
  for (const Record& r : base) {
    ASSERT_TRUE(service.Insert(r).ok());
  }

  constexpr size_t kThreads = 8;
  const size_t per_thread = base.size() / kThreads;
  std::vector<std::vector<IdPair>> found(kThreads);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
        Record arrival = base[i];
        arrival.id = 10000 + i;
        if (!service.MatchAndInsert(arrival, &found[t]).ok()) ++failures[t];
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(service.size(), base.size() * 2);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0);
    for (size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
      const IdPair expected{base[i].id, 10000 + i};
      EXPECT_TRUE(std::find(found[t].begin(), found[t].end(), expected) !=
                  found[t].end())
          << "arrival " << i << " did not link to its base record";
    }
  }
  const ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.queries, base.size());
  EXPECT_EQ(metrics.inserts, base.size() * 2);
}

TEST(ServiceTest, SnapshotRestoreRoundTripIdenticalMatches) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(created.ok());
  LinkageService& service = *created.value();

  const std::vector<Record> registry = GenerateRecords(gen.value(), 150, 4);
  ASSERT_TRUE(service.InsertBatch(registry).ok());

  std::vector<Record> queries;
  for (size_t i = 0; i < 40; ++i) {
    Record q = registry[i * 3];
    q.id = 5000 + i;
    queries.push_back(std::move(q));
  }
  std::vector<IdPair> before;
  for (const Record& q : queries) {
    ASSERT_TRUE(service.Match(q, &before).ok());
  }

  std::stringstream buffer;
  ASSERT_TRUE(service.SaveSnapshot(buffer).ok());
  const std::string saved = buffer.str();
  Result<ServiceSnapshot> snapshot = ReadServiceSnapshot(buffer);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().records.size(), registry.size());
  Result<std::unique_ptr<LinkageService>> restored =
      LinkageService::Restore(snapshot.value());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value()->size(), registry.size());
  EXPECT_EQ(restored.value()->blocking_groups(), service.blocking_groups());

  // A restore redraws the encoder from the snapshot's seed, gram -> bit
  // tables included: it encodes every record as the saver does, returns
  // the same pairs in the same order and saves the same bytes.
  for (const Record& record : registry) {
    Result<EncodedRecord> want = service.encoder().Encode(record);
    Result<EncodedRecord> got = restored.value()->encoder().Encode(record);
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(got.value().bits, want.value().bits) << "record " << record.id;
  }
  std::vector<IdPair> after;
  for (const Record& q : queries) {
    ASSERT_TRUE(restored.value()->Match(q, &after).ok());
  }
  EXPECT_EQ(after, before);
  std::stringstream resaved;
  ASSERT_TRUE(restored.value()->SaveSnapshot(resaved).ok());
  EXPECT_EQ(resaved.str(), saved);

  // The restored service keeps ingesting: a brand-new arrival links to
  // its duplicate inserted after the restore.
  Rng rng(77);
  Record fresh = gen.value().Generate(90000, rng);
  ASSERT_TRUE(restored.value()->Insert(fresh).ok());
  Record again = fresh;
  again.id = 90001;
  std::vector<IdPair> out;
  ASSERT_TRUE(restored.value()->Match(again, &out).ok());
  EXPECT_TRUE(std::find(out.begin(), out.end(),
                        IdPair{90000u, 90001u}) != out.end());
}

TEST(ServiceTest, RestoredServiceRunsBatchWorkOnTheCallersPool) {
  // The caller's one-worker pool is held busy, so a MatchBatch on a
  // service restored over it cannot finish until the pool is released.
  // A service that built a pool of its own would answer at once.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(created.ok());
  const std::vector<Record> registry = GenerateRecords(gen.value(), 60, 5);
  ASSERT_TRUE(created.value()->InsertBatch(registry).ok());
  std::stringstream buffer;
  ASSERT_TRUE(created.value()->SaveSnapshot(buffer).ok());
  Result<ServiceSnapshot> snapshot = ReadServiceSnapshot(buffer);
  ASSERT_TRUE(snapshot.ok());

  ThreadPool pool(1);
  Result<std::unique_ptr<LinkageService>> restored = LinkageService::Restore(
      snapshot.value(), ExecutionOptions::WithPool(&pool));
  ASSERT_TRUE(restored.ok());
  std::promise<void> release;
  pool.Submit([gate = release.get_future().share()] { gate.wait(); });
  std::vector<IdPair> pairs;
  std::future<Status> batch = std::async(std::launch::async, [&] {
    return restored.value()->MatchBatch(registry, &pairs);
  });
  EXPECT_EQ(batch.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  release.set_value();
  ASSERT_TRUE(batch.get().ok());
  EXPECT_GE(pairs.size(), registry.size());
}

TEST(ServiceTest, InsertBatchTablesEqualSerialInserts) {
  // InsertBatch computes the key matrix before taking the index lock and
  // merges it under the lock.  Into empty and into non-empty tables, and
  // with ids that repeat across and within batches, the tables equal
  // those of one Insert per record.  HbIndexTest.PutAllEqualsPutLoop
  // compares the tables bucket by bucket; here they are compared through
  // all the service shows of them: per-table health, the capped buckets'
  // contents through truncated matches, and the snapshot bytes.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkageServiceOptions options;
  options.max_bucket_size = 6;
  options.overflow_policy = OverflowPolicy::kTruncate;
  options.execution = ExecutionOptions::WithThreads(3);
  Result<std::unique_ptr<LinkageService>> batched =
      LinkageService::Create(BaseConfig(gen.value().schema()), options);
  Result<std::unique_ptr<LinkageService>> serial =
      LinkageService::Create(BaseConfig(gen.value().schema()), options);
  ASSERT_TRUE(batched.ok());
  ASSERT_TRUE(serial.ok());
  std::vector<Record> first = GenerateRecords(gen.value(), 90, 51);
  for (size_t i = 1; i < 9; ++i) {  // eight copies overflow the cap
    first[i] = first[0];
    first[i].id = 500 + i;
  }
  std::vector<Record> second = GenerateRecords(gen.value(), 60, 52);
  for (size_t i = 0; i < 10; ++i) second[i].id = first[20 + i].id;
  second[15].id = second[14].id;
  for (const std::vector<Record>* batch : {&first, &second}) {
    ASSERT_TRUE(batched.value()->InsertBatch(*batch).ok());
    for (const Record& r : *batch) ASSERT_TRUE(serial.value()->Insert(r).ok());
  }
  telemetry::Registry x;
  telemetry::Registry y;
  batched.value()->FillTelemetry(&x);
  serial.value()->FillTelemetry(&y);
  for (size_t l = 0; l < batched.value()->blocking_groups(); ++l) {
    for (const char* name : {"lsh_table_buckets", "lsh_table_entries",
                             "lsh_table_max_bucket"}) {
      EXPECT_EQ(Gauge(x, name, "table", l), Gauge(y, name, "table", l))
          << name << " " << l;
    }
  }
  EXPECT_GT(Gauge(x, "lsh_overflowed_buckets"), 0.0);
  EXPECT_EQ(Gauge(x, "lsh_overflowed_buckets"),
            Gauge(y, "lsh_overflowed_buckets"));
  EXPECT_EQ(Gauge(x, "lsh_dropped_entries"), Gauge(y, "lsh_dropped_entries"));
  for (const std::vector<Record>* batch : {&first, &second}) {
    const std::vector<Record> queries = AsQueries(*batch, 90000);
    EXPECT_EQ(Replies(*batched.value(), queries),
              Replies(*serial.value(), queries));
  }
  std::stringstream bx;
  std::stringstream by;
  ASSERT_TRUE(batched.value()->SaveSnapshot(bx).ok());
  ASSERT_TRUE(serial.value()->SaveSnapshot(by).ok());
  EXPECT_EQ(bx.str(), by.str());
}

TEST(ServiceTest, UpdateThenMatchEqualsFreshBuild) {
  // An update keeps the id's arena slot: the old bits' bucket entries
  // still name that slot, which now holds the new bits.  Matches must
  // see only the new bits — queries carrying the old bits no longer link
  // to the updated ids — exactly as a fresh build of the final records.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(created.ok());
  LinkageService& service = *created.value();
  const std::vector<Record> registry = GenerateRecords(gen.value(), 120, 31);
  ASSERT_TRUE(service.InsertBatch(registry).ok());
  std::vector<Record> final_records = registry;
  std::vector<Record> replacements = GenerateRecords(gen.value(), 25, 32);
  for (size_t i = 0; i < replacements.size(); ++i) {
    replacements[i].id = registry[i * 4].id;
    final_records[i * 4] = replacements[i];
    ASSERT_TRUE(service.Update(replacements[i]).ok());
  }

  Result<std::unique_ptr<LinkageService>> fresh =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh.value()->InsertBatch(final_records).ok());
  size_t old_links = 0;
  size_t new_links = 0;
  const std::vector<Record>* const sets[] = {&registry, &replacements};
  for (const std::vector<Record>* set : sets) {
    for (const Record& r : *set) {
      Record q = r;
      q.id = 70000 + r.id;
      std::vector<IdPair> served;
      std::vector<IdPair> expected;
      ASSERT_TRUE(service.Match(q, &served).ok());
      ASSERT_TRUE(fresh.value()->Match(q, &expected).ok());
      EXPECT_EQ(served, expected) << "query for id " << r.id;
      const bool links_to_own_id =
          std::find(served.begin(), served.end(), IdPair{r.id, q.id}) !=
          served.end();
      (set == &replacements ? new_links : old_links) += links_to_own_id;
    }
  }
  EXPECT_EQ(new_links, replacements.size());
  EXPECT_EQ(old_links, registry.size() - replacements.size());
}

TEST(ServiceTest, RestoreDropsDeletedBucketIdsAndMatchesAsBefore) {
  // Snapshots store only live records, while a deleted id lingers in
  // its buckets until compaction.  Restore rebuilds the tables from the
  // live records, so those entries are gone; the restored service
  // matches exactly as the original did before the snapshot.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(created.ok());
  LinkageService& service = *created.value();
  const std::vector<Record> registry = GenerateRecords(gen.value(), 150, 41);
  ASSERT_TRUE(service.InsertBatch(registry).ok());
  size_t deleted = 0;
  for (size_t i = 0; i < registry.size(); i += 5) {
    ASSERT_TRUE(service.Delete(registry[i].id).ok());
    ++deleted;
  }
  std::vector<Record> queries;
  for (const Record& r : registry) {
    Record q = r;
    q.id = 60000 + r.id;
    queries.push_back(std::move(q));
  }
  std::vector<std::vector<IdPair>> before(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(service.Match(queries[i], &before[i]).ok());
  }

  std::stringstream buffer;
  ASSERT_TRUE(service.SaveSnapshot(buffer).ok());
  Result<ServiceSnapshot> snapshot = ReadServiceSnapshot(buffer);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().tombstones.size(), deleted);
  Result<std::unique_ptr<LinkageService>> restored =
      LinkageService::Restore(snapshot.value());
  ASSERT_TRUE(restored.ok());
  telemetry::Registry telemetry;
  restored.value()->FillTelemetry(&telemetry);
  double entries = 0;
  for (size_t l = 0; l < service.blocking_groups(); ++l) {
    entries += Gauge(telemetry, "lsh_table_entries", "table", l);
  }
  EXPECT_EQ(entries, static_cast<double>((registry.size() - deleted) *
                                         service.blocking_groups()));
  EXPECT_EQ(restored.value()->size(), registry.size() - deleted);
  size_t linked = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<IdPair> after;
    ASSERT_TRUE(restored.value()->Match(queries[i], &after).ok());
    EXPECT_EQ(after, before[i]) << "query " << queries[i].id;
    linked += after.empty() ? 0 : 1;
  }
  EXPECT_GE(linked, registry.size() - deleted);
}

TEST(ServiceTest, RestoreEqualsCompaction) {
  // Snapshots hold records only; Restore rebuilds the index the way
  // Compact() does, from the live records in id order.  Two replies may
  // differ from the live service's, exactly as after a compaction: a
  // capped bucket keeps its lowest ids, and an updated record's old
  // bits no longer make it a candidate.  The restored service answers
  // as the saved one does after Compact(), and export -> restore ->
  // export gives the same bytes.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkageServiceOptions options;
  options.max_bucket_size = 4;
  options.overflow_policy = OverflowPolicy::kTruncate;
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(BaseConfig(gen.value().schema()), options);
  ASSERT_TRUE(created.ok());
  LinkageService& service = *created.value();
  std::vector<Record> registry = GenerateRecords(gen.value(), 100, 3);
  for (size_t i = 1; i < 8; ++i) {
    // Seven copies of record 0 overflow the cap.  Their ids fall as they
    // arrive, so the live buckets keep other ids than a rebuild does.
    registry[i] = registry[0];
    registry[i].id = 1000 - i;
  }
  ASSERT_TRUE(service.InsertBatch(registry).ok());
  ASSERT_TRUE(service.Delete(registry[50].id).ok());
  ASSERT_TRUE(service.Delete(registry[3].id).ok());
  Record updated = registry[60];
  updated.fields = registry[61].fields;
  ASSERT_TRUE(service.Update(updated).ok());
  EXPECT_GT(service.metrics().dropped_entries, 0u);

  std::stringstream saved;
  ASSERT_TRUE(service.SaveSnapshot(saved).ok());
  Result<ServiceSnapshot> snapshot = ReadServiceSnapshot(saved);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  Result<std::unique_ptr<LinkageService>> restored =
      LinkageService::Restore(snapshot.value());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  ASSERT_TRUE(service.Compact().ok());
  std::vector<Record> queries = AsQueries(registry, 60000);
  queries.push_back(registry[60]);
  queries.back().id = 70000;
  EXPECT_EQ(Replies(*restored.value(), queries), Replies(service, queries));
  EXPECT_EQ(restored.value()->metrics().dropped_entries,
            service.metrics().dropped_entries);
  std::stringstream again;
  ASSERT_TRUE(restored.value()->SaveSnapshot(again).ok());
  EXPECT_EQ(again.str(), saved.str());
}

/// The bucket section a version 3 writer saved for `records` inserted in
/// order into a fresh service over `config` with `bucket_cap`: every
/// table's buckets sorted by key, each bucket's ids in insertion order.
std::vector<LegacyBucket> LegacyBuckets(const CbvHbConfig& config,
                                        size_t bucket_cap,
                                        const std::vector<Record>& records) {
  Rng rng(config.seed);
  Result<CbvHbParts> parts = MakeCbvHbParts(config, rng);
  EXPECT_TRUE(parts.ok());
  HbIndex index = parts.value().index.EmptyCopy(bucket_cap);
  index.InsertAll(parts.value().encoder.EncodeAll(records).value());
  const std::vector<BlockingTable>& tables = index.blocker().tables();
  std::vector<LegacyBucket> buckets;
  for (size_t group = 0; group < tables.size(); ++group) {
    const size_t first = buckets.size();
    tables[group].ForEachBucket([&](uint64_t key,
                                    std::span<const uint32_t> slots,
                                    bool overflowed) {
      LegacyBucket bucket{group, key, overflowed, {}};
      for (const uint32_t slot : slots) {
        bucket.ids.push_back(index.store().IdAt(slot));
      }
      buckets.push_back(std::move(bucket));
    });
    std::sort(buckets.begin() + static_cast<ptrdiff_t>(first), buckets.end(),
              [](const LegacyBucket& x, const LegacyBucket& y) {
                return x.key < y.key;
              });
  }
  return buckets;
}

TEST(ServiceTest, RestoresV3SnapshotsWithBuckets) {
  // A version 3 file carries num_shards and the saved buckets.  Restore
  // reads them and rebuilds the tables from the records instead.
  // Uncapped and without updates, the rebuilt tables hold what the saved
  // buckets held, so the restored service answers as the saved one did
  // before the snapshot (and as a restore of the saved buckets did);
  // capped, it answers as the saved one does after Compact().
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const CbvHbConfig config = BaseConfig(gen.value().schema());
  std::vector<Record> registry = GenerateRecords(gen.value(), 80, 12);
  for (size_t i = 1; i < 6; ++i) {
    registry[i] = registry[0];
    registry[i].id = 900 - i;
  }
  const std::vector<Record> queries = AsQueries(registry, 50000);
  for (const size_t cap : {size_t{0}, size_t{3}}) {
    LinkageServiceOptions options;
    options.max_bucket_size = cap;
    options.overflow_policy = OverflowPolicy::kTruncate;
    Result<std::unique_ptr<LinkageService>> created =
        LinkageService::Create(config, options);
    ASSERT_TRUE(created.ok());
    LinkageService& service = *created.value();
    ASSERT_TRUE(service.InsertBatch(registry).ok());
    ASSERT_TRUE(service.Delete(registry[40].id).ok());
    const std::vector<std::vector<IdPair>> before = Replies(service, queries);

    const std::vector<LegacyBucket> buckets =
        LegacyBuckets(config, cap, registry);
    ASSERT_FALSE(buckets.empty());
    std::istringstream in(
        LegacyV3SnapshotBytes(service.ExportSnapshot(), 16, buckets));
    Result<ServiceSnapshot> snapshot = ReadServiceSnapshot(in);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    Result<std::unique_ptr<LinkageService>> restored =
        LinkageService::Restore(snapshot.value());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value()->size(), registry.size() - 1);
    EXPECT_FALSE(restored.value()->Contains(registry[40].id));
    if (cap == 0) {
      EXPECT_EQ(Replies(*restored.value(), queries), before);
    } else {
      ASSERT_TRUE(service.Compact().ok());
      EXPECT_EQ(Replies(*restored.value(), queries),
                Replies(service, queries));
    }
  }
}

TEST(ServiceTest, PinnedServedPairs) {
  // A fixed registry, a few deletes and updates, and a fixed query set:
  // the served pairs (in reply order), their count and the comparisons
  // behind them are pinned.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions data_options;
  data_options.num_records = 2000;
  data_options.seed = 2016;
  Result<LinkagePair> data = BuildLinkagePair(
      gen.value(), PerturbationScheme::Light(), data_options);
  ASSERT_TRUE(data.ok());
  const std::vector<Record>& a = data.value().a;
  LinkageServiceOptions options;
  options.execution = ExecutionOptions::WithThreads(3);
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(BaseConfig(gen.value().schema()), options);
  ASSERT_TRUE(created.ok());
  LinkageService& service = *created.value();
  ASSERT_TRUE(service.InsertBatch(a).ok());
  for (size_t i = 0; i < a.size(); i += 97) {
    ASSERT_TRUE(service.Delete(a[i].id).ok());
  }
  for (size_t i = 5; i + 1 < a.size(); i += 101) {
    if (!service.Contains(a[i].id)) continue;
    Record updated = a[i];
    updated.fields = a[i + 1].fields;
    ASSERT_TRUE(service.Update(updated).ok());
  }
  std::vector<IdPair> served;
  for (const Record& query : data.value().b) {
    ASSERT_TRUE(service.Match(query, &served).ok());
  }
  EXPECT_EQ(served.size(), 1007u);
  EXPECT_EQ(service.metrics().comparisons, 1878u);
  EXPECT_EQ(HashPairs(served), 0xe7f781348e586a71ULL);
}

// A decoded-but-inconsistent snapshot must be rejected by Restore's
// semantic validation, not acted on.
class RestoreValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<NcvrGenerator> gen = NcvrGenerator::Create();
    ASSERT_TRUE(gen.ok());
    Result<std::unique_ptr<LinkageService>> service =
        LinkageService::Create(BaseConfig(gen.value().schema()));
    ASSERT_TRUE(service.ok());
    for (const Record& r : GenerateRecords(gen.value(), 10, 6)) {
      ASSERT_TRUE(service.value()->Insert(r).ok());
    }
    snapshot_ = service.value()->ExportSnapshot();
    ASSERT_TRUE(LinkageService::Restore(snapshot_).ok())
        << "baseline snapshot must restore before mutation";
  }

  void ExpectRejected(const char* what) {
    const Status st = LinkageService::Restore(snapshot_).status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
  }

  ServiceSnapshot snapshot_;
};

TEST_F(RestoreValidationTest, DuplicateRecordIdsRejected) {
  ASSERT_GE(snapshot_.records.size(), 2u);
  snapshot_.records[1].id = snapshot_.records[0].id;
  ExpectRejected("duplicate record ids");
}

TEST_F(RestoreValidationTest, ZeroShardsRejected) {
  // Versions 1-3 carried num_shards; a value no writer produced still
  // marks the file as corrupt.
  std::istringstream in(LegacyV3SnapshotBytes(snapshot_, 0, {}));
  EXPECT_EQ(ReadServiceSnapshot(in).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RestoreValidationTest, NonPowerOfTwoShardsRejected) {
  std::istringstream in(LegacyV3SnapshotBytes(snapshot_, 6, {}));
  EXPECT_EQ(ReadServiceSnapshot(in).status().code(),
            StatusCode::kInvalidArgument);
  std::istringstream valid(LegacyV3SnapshotBytes(snapshot_, 8, {}));
  EXPECT_TRUE(ReadServiceSnapshot(valid).ok());
}

TEST_F(RestoreValidationTest, NonFiniteDeltaRejected) {
  snapshot_.delta = std::numeric_limits<double>::quiet_NaN();
  ExpectRejected("NaN delta");
  snapshot_.delta = std::numeric_limits<double>::infinity();
  ExpectRejected("infinite delta");
  snapshot_.delta = 1.5;
  ExpectRejected("delta outside (0, 1)");
}

TEST_F(RestoreValidationTest, BadExpectedQgramsRejected) {
  snapshot_.expected_qgrams.pop_back();
  ExpectRejected("qgram/attribute count mismatch");
  snapshot_.expected_qgrams.push_back(-3.0);
  ExpectRejected("negative expected qgrams");
}

TEST_F(RestoreValidationTest, UnknownOverflowPolicyRejected) {
  snapshot_.overflow_policy = 7;
  ExpectRejected("unknown overflow policy");
}

TEST_F(RestoreValidationTest, RecordWidthMismatchRejected) {
  // Records narrower than what the restored encoder produces cannot be
  // compared against fresh encodings; must fail, not silently mismatch.
  for (EncodedRecord& r : snapshot_.records) {
    r.bits = BitVector(8);
  }
  ExpectRejected("record width != encoder width");
}

TEST_F(RestoreValidationTest, HugeQOverOneSymbolAlphabetRejectedFast) {
  // |S|^q never overflows over a single symbol; an unbounded q from the
  // snapshot bytes must be refused up front, not looped over.
  snapshot_.attributes[0].alphabet_symbols.assign(1, kPadChar);
  snapshot_.attributes[0].qgram_q = uint64_t{1} << 40;
  snapshot_.attributes[0].qgram_pad = true;
  const auto start = std::chrono::steady_clock::now();
  ExpectRejected("q = 2^40 over a one-symbol alphabet");
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
}

TEST_F(RestoreValidationTest, EmptyAlphabetRejected) {
  snapshot_.attributes[1].alphabet_symbols.clear();
  snapshot_.attributes[1].qgram_pad = false;
  ExpectRejected("empty alphabet");
}

TEST(ServiceFailpointTest, InjectedFaultsSurfaceAsStatus) {
  Failpoints::DeactivateAll();
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(service.ok());
  const std::vector<Record> records = GenerateRecords(gen.value(), 2, 9);
  ASSERT_TRUE(service.value()->Insert(records[0]).ok());

  Failpoints::Activate("service.insert", FailpointAction::kError);
  EXPECT_EQ(service.value()->Insert(records[1]).code(),
            StatusCode::kIOError);
  Failpoints::Deactivate("service.insert");
  // The failed insert must not have touched the store.
  EXPECT_EQ(service.value()->size(), 1u);

  std::vector<IdPair> out;
  Failpoints::Activate("service.match", FailpointAction::kError);
  EXPECT_EQ(service.value()->Match(records[0], &out).code(),
            StatusCode::kIOError);
  Failpoints::DeactivateAll();
  EXPECT_TRUE(service.value()->Match(records[0], &out).ok());
}

TEST(ServiceTest, ScanFallbackPreservesRecallUnderBucketCap) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkageServiceOptions options;
  options.max_bucket_size = 1;
  options.overflow_policy = OverflowPolicy::kScanFallback;
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(BaseConfig(gen.value().schema()), options);
  ASSERT_TRUE(service.ok());

  // Three identical records share every bucket; the cap keeps only the
  // first, so the other two are reachable only through the fallback scan.
  Rng rng(8);
  const Record entity = gen.value().Generate(0, rng);
  for (RecordId id = 1; id <= 3; ++id) {
    Record copy = entity;
    copy.id = id;
    ASSERT_TRUE(service.value()->Insert(copy).ok());
  }
  Record query = entity;
  query.id = 42;
  std::vector<IdPair> out;
  ASSERT_TRUE(service.value()->Match(query, &out).ok());
  EXPECT_EQ(Sorted(std::move(out)),
            (std::vector<IdPair>{{1, 42}, {2, 42}, {3, 42}}));
  const ServiceMetrics metrics = service.value()->metrics();
  EXPECT_GT(metrics.scan_fallbacks, 0u);
  EXPECT_GT(metrics.dropped_entries, 0u);
}

TEST(ServiceTest, TruncatePolicyBoundsWorkUnderBucketCap) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkageServiceOptions options;
  options.max_bucket_size = 1;
  options.overflow_policy = OverflowPolicy::kTruncate;
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(BaseConfig(gen.value().schema()), options);
  ASSERT_TRUE(service.ok());

  Rng rng(8);
  const Record entity = gen.value().Generate(0, rng);
  for (RecordId id = 1; id <= 3; ++id) {
    Record copy = entity;
    copy.id = id;
    ASSERT_TRUE(service.value()->Insert(copy).ok());
  }
  Record query = entity;
  query.id = 42;
  std::vector<IdPair> out;
  ASSERT_TRUE(service.value()->Match(query, &out).ok());
  EXPECT_EQ(out, (std::vector<IdPair>{{1, 42}}));
  EXPECT_EQ(service.value()->metrics().scan_fallbacks, 0u);
}

TEST(ServiceTest, PairsAscendByRegistryIdPerQuery) {
  // Identical records inserted out of id order share every bucket, so
  // both the blocked path (bucket arrival order 7, 2, 9, 5) and the scan
  // fallback (arena order) would emit them out of id order; each query's
  // pairs must still come out ascending, from Match and from MatchBatch.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(8);
  const Record entity = gen.value().Generate(0, rng);
  for (const size_t cap : {size_t{0}, size_t{1}}) {
    LinkageServiceOptions options;
    options.max_bucket_size = cap;
    options.overflow_policy = OverflowPolicy::kScanFallback;
    options.execution = ExecutionOptions::WithThreads(2);
    Result<std::unique_ptr<LinkageService>> service =
        LinkageService::Create(BaseConfig(gen.value().schema()), options);
    ASSERT_TRUE(service.ok());
    for (const RecordId id : {7, 2, 9, 5}) {
      Record copy = entity;
      copy.id = id;
      ASSERT_TRUE(service.value()->Insert(copy).ok());
    }
    std::vector<Record> queries;
    for (const RecordId id : {42, 43}) {
      Record query = entity;
      query.id = id;
      queries.push_back(query);
    }
    std::vector<IdPair> out;
    ASSERT_TRUE(service.value()->Match(queries[0], &out).ok());
    EXPECT_EQ(out, (std::vector<IdPair>{{2, 42}, {5, 42}, {7, 42}, {9, 42}}))
        << "cap " << cap;
    EXPECT_EQ(service.value()->metrics().scan_fallbacks, cap == 0 ? 0u : 1u);

    std::vector<IdPair> batch;
    ASSERT_TRUE(service.value()->MatchBatch(queries, &batch).ok());
    for (const Record& query : queries) {
      std::vector<RecordId> registry_ids;
      for (const IdPair& pair : batch) {
        if (pair.b_id == query.id) registry_ids.push_back(pair.a_id);
      }
      EXPECT_EQ(registry_ids, (std::vector<RecordId>{2, 5, 7, 9}))
          << "cap " << cap << " query " << query.id;
    }
  }
}

TEST(ServiceTest, MatchBatchRacesWritersAndCompaction) {
  // Pool-driven MatchBatch readers run back to back while other threads
  // insert, update, delete and compact.  The index lock prefers writers,
  // so no write waits behind an unbounded stream of Matches; once the
  // threads stop, every Match equals a fresh build of the survivors.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkageServiceOptions options;
  options.execution = ExecutionOptions::WithThreads(3);
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(BaseConfig(gen.value().schema()), options);
  ASSERT_TRUE(created.ok());
  LinkageService& service = *created.value();

  const std::vector<Record> registry = GenerateRecords(gen.value(), 150, 21);
  ASSERT_TRUE(service.InsertBatch(registry).ok());
  std::vector<Record> arrivals = GenerateRecords(gen.value(), 60, 22);
  for (size_t i = 0; i < arrivals.size(); ++i) arrivals[i].id = 1000 + i;
  std::vector<Record> replacements = GenerateRecords(gen.value(), 30, 23);
  for (size_t i = 0; i < replacements.size(); ++i) {
    replacements[i].id = registry[i].id;
  }
  std::vector<Record> queries;
  for (const std::vector<Record>& set : {registry, arrivals, replacements}) {
    for (const Record& r : set) {
      Record q = r;
      q.id = 50000 + queries.size();
      queries.push_back(std::move(q));
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> rounds{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<IdPair> out;
        EXPECT_TRUE(service.MatchBatch(queries, &out).ok());
        rounds.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (rounds.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  using Clock = std::chrono::steady_clock;
  std::atomic<int64_t> slowest_write_us{0};
  const auto timed = [&](const auto& write) {
    const Clock::time_point start = Clock::now();
    write();
    const int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - start)
                           .count();
    int64_t seen = slowest_write_us.load();
    while (us > seen && !slowest_write_us.compare_exchange_weak(seen, us)) {
    }
  };
  std::vector<std::thread> writers;
  writers.emplace_back([&] {
    for (const Record& r : arrivals) {
      timed([&] { EXPECT_TRUE(service.Insert(r).ok()); });
    }
  });
  writers.emplace_back([&] {
    for (const Record& r : replacements) {
      timed([&] { EXPECT_TRUE(service.Update(r).ok()); });
    }
  });
  writers.emplace_back([&] {
    for (size_t i = 30; i < 60; ++i) {
      timed([&] { EXPECT_TRUE(service.Delete(registry[i].id).ok()); });
    }
  });
  writers.emplace_back([&] {
    for (int k = 0; k < 4; ++k) {
      timed([&] { EXPECT_TRUE(service.Compact().ok()); });
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  // Generous for sanitizer builds: a write waits for the Matches already
  // holding the lock, never for the ones that arrive after it.
  EXPECT_LT(slowest_write_us.load(), 5'000'000);

  ASSERT_TRUE(service.Compact().ok());
  std::vector<Record> survivors(registry.begin(), registry.end());
  std::copy(replacements.begin(), replacements.end(), survivors.begin());
  survivors.erase(survivors.begin() + 30, survivors.begin() + 60);
  survivors.insert(survivors.end(), arrivals.begin(), arrivals.end());
  EXPECT_EQ(service.size(), survivors.size());
  EXPECT_EQ(service.tombstone_count(), 0u);

  Result<std::unique_ptr<LinkageService>> fresh =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh.value()->InsertBatch(survivors).ok());
  for (const Record& q : queries) {
    std::vector<IdPair> served;
    std::vector<IdPair> expected;
    ASSERT_TRUE(service.Match(q, &served).ok());
    ASSERT_TRUE(fresh.value()->Match(q, &expected).ok());
    EXPECT_EQ(served, expected) << "query " << q.id;
  }
}

}  // namespace
}  // namespace cbvlink
