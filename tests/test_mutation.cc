// Mutation-lifecycle tests (DESIGN.md §15): delete/update semantics,
// tombstone persistence through snapshot v3 and journal replay, the
// byte-identity of match output across compaction, and the concurrent
// match + delete + compaction drill the TSan job runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/mutation.h"
#include "src/datagen/generators.h"
#include "src/io/journal.h"
#include "src/io/serialization.h"
#include "src/service/linkage_service.h"
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

std::string TempPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::unique_ptr<LinkageService> MakeService(
    const NcvrGenerator& gen, LinkageServiceOptions options = {}) {
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(BaseConfig(gen.schema()), options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

/// Matches a copy of `record` under a fresh query id.
std::vector<IdPair> MatchOne(const LinkageService& service,
                             const Record& record, RecordId query_id = 9000) {
  Record query = record;
  query.id = query_id;
  std::vector<IdPair> out;
  EXPECT_TRUE(service.Match(query, &out).ok());
  return out;
}

TEST(MutationTest, DeleteHidesRecordImmediately) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  std::unique_ptr<LinkageService> service = MakeService(gen.value());
  const std::vector<Record> records = GenerateRecords(gen.value(), 3, 1);
  for (const Record& r : records) ASSERT_TRUE(service->Insert(r).ok());

  ASSERT_EQ(MatchOne(*service, records[0]).size(), 1u);
  ASSERT_TRUE(service->Delete(records[0].id).ok());

  EXPECT_TRUE(MatchOne(*service, records[0]).empty());
  EXPECT_FALSE(service->Contains(records[0].id));
  EXPECT_EQ(service->size(), 2u);
  EXPECT_EQ(service->tombstone_count(), 1u);

  // A second delete of the same id — and of a never-seen id — is NotFound.
  EXPECT_EQ(service->Delete(records[0].id).code(), StatusCode::kNotFound);
  EXPECT_EQ(service->Delete(424242).code(), StatusCode::kNotFound);

  const ServiceMetrics metrics = service->metrics();
  EXPECT_EQ(metrics.deletes, 1u);
  EXPECT_EQ(metrics.tombstones, 1u);
  EXPECT_EQ(metrics.live_records, 2u);
}

TEST(MutationTest, UpdateReplacesFieldsUnderTheSameId) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  std::unique_ptr<LinkageService> service = MakeService(gen.value());
  const std::vector<Record> records = GenerateRecords(gen.value(), 2, 1);
  ASSERT_TRUE(service->Insert(records[0]).ok());

  // Rewrite record 0's fields to record 1's: queries for the new fields
  // must link to the original id, queries for the old fields must not.
  Record updated = records[1];
  updated.id = records[0].id;
  ASSERT_TRUE(service->Update(updated).ok());

  std::vector<IdPair> hits = MatchOne(*service, records[1]);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].a_id, records[0].id);
  EXPECT_TRUE(MatchOne(*service, records[0]).empty());

  // Updating an id that was never inserted is NotFound (the upsert
  // behavior is reserved for the replay path).
  Record unknown = records[1];
  unknown.id = 777;
  EXPECT_EQ(service->Update(unknown).code(), StatusCode::kNotFound);
  EXPECT_EQ(service->metrics().updates, 1u);
}

TEST(MutationTest, InsertResurrectsATombstonedId) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  std::unique_ptr<LinkageService> service = MakeService(gen.value());
  const std::vector<Record> records = GenerateRecords(gen.value(), 2, 1);
  ASSERT_TRUE(service->Insert(records[0]).ok());
  ASSERT_TRUE(service->Delete(records[0].id).ok());
  ASSERT_EQ(service->tombstone_count(), 1u);

  ASSERT_TRUE(service->Insert(records[0]).ok());
  EXPECT_TRUE(service->Contains(records[0].id));
  EXPECT_EQ(service->tombstone_count(), 0u);
  EXPECT_EQ(MatchOne(*service, records[0]).size(), 1u);
}

TEST(MutationTest, SnapshotV3RoundTripsTombstonesAndSequence) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  std::unique_ptr<LinkageService> service = MakeService(gen.value());
  const std::vector<Record> records = GenerateRecords(gen.value(), 10, 1);
  for (const Record& r : records) ASSERT_TRUE(service->Insert(r).ok());
  ASSERT_TRUE(service->Delete(records[2].id).ok());
  ASSERT_TRUE(service->Delete(records[5].id).ok());
  Record updated = records[1];
  updated.fields = records[9].fields;
  ASSERT_TRUE(service->Update(updated).ok());
  const uint64_t sequence = service->last_sequence();
  ASSERT_EQ(sequence, 3u);

  const ServiceSnapshot snapshot = service->ExportSnapshot();
  EXPECT_EQ(snapshot.tombstones.size(), 2u);
  EXPECT_EQ(snapshot.last_sequence, sequence);

  std::stringstream stream;
  ASSERT_TRUE(WriteServiceSnapshot(snapshot, stream).ok());
  Result<ServiceSnapshot> reread = ReadServiceSnapshot(stream);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  std::vector<RecordId> tombstones = reread.value().tombstones;
  std::sort(tombstones.begin(), tombstones.end());
  std::vector<RecordId> expected_dead = {records[2].id, records[5].id};
  std::sort(expected_dead.begin(), expected_dead.end());
  EXPECT_EQ(tombstones, expected_dead);
  EXPECT_EQ(reread.value().last_sequence, sequence);

  Result<std::unique_ptr<LinkageService>> restored =
      LinkageService::Restore(reread.value());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->size(), 8u);
  EXPECT_EQ(restored.value()->tombstone_count(), 2u);
  EXPECT_EQ(restored.value()->last_sequence(), sequence);
  EXPECT_FALSE(restored.value()->Contains(records[2].id));
  // Restored match output equals the live service's for every survivor.
  for (const Record& r : records) {
    EXPECT_EQ(MatchOne(*restored.value(), r), MatchOne(*service, r))
        << "record " << r.id;
  }
}

TEST(MutationTest, V2SnapshotFormatStillRoundTrips) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  std::unique_ptr<LinkageService> service = MakeService(gen.value());
  const std::vector<Record> records = GenerateRecords(gen.value(), 4, 1);
  for (const Record& r : records) ASSERT_TRUE(service->Insert(r).ok());

  // A mutation-free snapshot in the version 2 layout still reads back
  // and restores.
  std::istringstream v2(LegacySnapshotBytes(service->ExportSnapshot(), 2));
  Result<ServiceSnapshot> reread = ReadServiceSnapshot(v2);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_TRUE(reread.value().tombstones.empty());
  EXPECT_EQ(reread.value().last_sequence, 0u);
  EXPECT_TRUE(LinkageService::Restore(reread.value()).ok());
}

TEST(MutationTest, DeleteAndUpdateSurviveCrashAndReplay) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const std::vector<Record> records = GenerateRecords(gen.value(), 6, 1);
  const std::string snapshot_path = TempPath("mutation_crash.snap");
  const std::string journal_path = TempPath("mutation_crash.cbvj");
  Record updated = records[3];
  updated.fields = records[5].fields;

  {
    std::unique_ptr<LinkageService> service = MakeService(gen.value());
    Result<std::unique_ptr<Journal>> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    service->AttachJournal(std::move(journal).value());
    for (const Record& r : records) ASSERT_TRUE(service->Insert(r).ok());
    ASSERT_TRUE(service->SaveSnapshotToFile(snapshot_path).ok());
    // Acknowledged after the snapshot: only the journal carries these.
    ASSERT_TRUE(service->Delete(records[2].id).ok());
    ASSERT_TRUE(service->Update(updated).ok());
    // "Crash": drop the service without another snapshot.
  }

  Result<std::unique_ptr<LinkageService>> recovered =
      LinkageService::RestoreFromFile(snapshot_path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Result<JournalReplayStats> replay =
      recovered.value()->ReplayJournalFile(journal_path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay.value().applied, 2u);  // inserts dedupe, mutations apply

  EXPECT_FALSE(recovered.value()->Contains(records[2].id));
  EXPECT_TRUE(MatchOne(*recovered.value(), records[2]).empty());
  std::vector<IdPair> hits = MatchOne(*recovered.value(), records[5]);
  std::vector<RecordId> hit_ids;
  for (const IdPair& p : hits) hit_ids.push_back(p.a_id);
  std::sort(hit_ids.begin(), hit_ids.end());
  std::vector<RecordId> expected_hits = {records[3].id, records[5].id};
  std::sort(expected_hits.begin(), expected_hits.end());
  EXPECT_EQ(hit_ids, expected_hits);

  // Replaying the same journal again applies nothing: inserts dedupe by
  // id, delete/update frames sit at or below the sequence floor now.
  Result<JournalReplayStats> again =
      recovered.value()->ReplayJournalFile(journal_path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().applied, 0u);
  EXPECT_FALSE(recovered.value()->Contains(records[2].id));
}

TEST(MutationTest, UpdateThenCompactEqualsFreshBuild) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  std::unique_ptr<LinkageService> mutated = MakeService(gen.value());
  std::vector<Record> final_state = GenerateRecords(gen.value(), 40, 1);
  const std::vector<Record> replacements = GenerateRecords(gen.value(), 10, 2);

  for (const Record& r : final_state) ASSERT_TRUE(mutated->Insert(r).ok());
  // Rewrite every 4th record and delete two — final_state tracks what a
  // fresh build would index.
  for (size_t i = 0; i < 10; ++i) {
    Record updated = replacements[i];
    updated.id = final_state[i * 4].id;
    ASSERT_TRUE(mutated->Update(updated).ok());
    final_state[i * 4] = updated;
  }
  ASSERT_TRUE(mutated->Delete(final_state[1].id).ok());
  ASSERT_TRUE(mutated->Delete(final_state[7].id).ok());
  final_state.erase(final_state.begin() + 7);
  final_state.erase(final_state.begin() + 1);

  ASSERT_TRUE(mutated->Compact().ok());
  EXPECT_EQ(mutated->tombstone_count(), 0u);
  EXPECT_EQ(mutated->metrics().compactions, 1u);
  EXPECT_GT(mutated->metrics().compaction_reclaimed, 0u);

  std::unique_ptr<LinkageService> fresh = MakeService(gen.value());
  for (const Record& r : final_state) ASSERT_TRUE(fresh->Insert(r).ok());

  const std::vector<Record> queries = GenerateRecords(gen.value(), 60, 1);
  for (const Record& q : queries) {
    EXPECT_EQ(MatchOne(*mutated, q), MatchOne(*fresh, q)) << "query " << q.id;
  }
}

TEST(MutationTest, CompactionKeepsMatchesByteIdenticalAtAnyThreadCount) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    LinkageServiceOptions options;
    options.execution = ExecutionOptions::WithThreads(threads);
    std::unique_ptr<LinkageService> service = MakeService(gen.value(), options);
    const std::vector<Record> records = GenerateRecords(gen.value(), 60, 1);
    ASSERT_TRUE(service->InsertBatch(records).ok());
    for (size_t i = 0; i < records.size(); i += 3) {
      ASSERT_TRUE(service->Delete(records[i].id).ok());
    }

    // Per-query output is deterministic (candidates are sort+unique'd),
    // so compare raw bytes query by query, and MatchBatch's output,
    // which is a Match loop's, as a whole.
    std::vector<std::vector<IdPair>> before(records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      before[i] = MatchOne(*service, records[i], 9000 + i);
    }
    std::vector<IdPair> batch_before;
    ASSERT_TRUE(service->MatchBatch(records, &batch_before).ok());

    ASSERT_TRUE(service->Compact().ok());

    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(MatchOne(*service, records[i], 9000 + i), before[i])
          << "threads=" << threads << " query " << records[i].id;
    }
    std::vector<IdPair> batch_after;
    ASSERT_TRUE(service->MatchBatch(records, &batch_after).ok());
    EXPECT_EQ(batch_after, batch_before) << "threads=" << threads;
  }
}

// The TSan drill: concurrent Match, Delete/Update, and the background
// compactor publishing new epochs.  Correctness assertion at the end:
// the surviving state matches a fresh build.
TEST(MutationTest, ConcurrentMatchDeleteCompactIsSafe) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkageServiceOptions options;
  options.execution = ExecutionOptions::WithThreads(2);
  options.compaction_dead_ratio = 0.02;  // compact eagerly
  options.compaction_interval = std::chrono::milliseconds(1);
  std::unique_ptr<LinkageService> service = MakeService(gen.value(), options);
  const std::vector<Record> records = GenerateRecords(gen.value(), 120, 1);
  ASSERT_TRUE(service->InsertBatch(records).ok());
  service->StartBackgroundCompaction();

  std::atomic<bool> stop{false};
  std::vector<std::thread> matchers;
  for (int t = 0; t < 3; ++t) {
    matchers.emplace_back([&service, &records, &stop, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        Record query = records[i % records.size()];
        query.id = 50000 + i;
        std::vector<IdPair> out;
        ASSERT_TRUE(service->Match(query, &out).ok());
        ++i;
      }
    });
  }
  // Delete the front half while the matchers run.
  for (size_t i = 0; i < records.size() / 2; ++i) {
    ASSERT_TRUE(service->Delete(records[i].id).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : matchers) t.join();
  service->StopBackgroundCompaction();
  ASSERT_TRUE(service->Compact().ok());  // drain any residual tombstones

  std::unique_ptr<LinkageService> fresh = MakeService(gen.value());
  for (size_t i = records.size() / 2; i < records.size(); ++i) {
    ASSERT_TRUE(fresh->Insert(records[i]).ok());
  }
  for (const Record& q : records) {
    EXPECT_EQ(MatchOne(*service, q), MatchOne(*fresh, q)) << "query " << q.id;
  }
  EXPECT_GE(service->metrics().compactions, 1u);
}

TEST(MutationTest, ApplyMutationHonorsSequenceFloorAndDedupes) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  std::unique_ptr<LinkageService> service = MakeService(gen.value());
  const std::vector<Record> records = GenerateRecords(gen.value(), 3, 1);

  // Insert applies once, dedupes by id after that.
  Result<bool> applied = service->ApplyMutation(MutationOp::Insert(records[0]));
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(applied.value());
  applied = service->ApplyMutation(MutationOp::Insert(records[0]));
  ASSERT_TRUE(applied.ok());
  EXPECT_FALSE(applied.value());

  // A sequenced delete applies and raises the floor ...
  applied = service->ApplyMutation(MutationOp::Delete(records[0].id, 5));
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(applied.value());
  EXPECT_EQ(service->last_sequence(), 5u);
  // ... so replaying it (or anything older) is skipped.
  applied = service->ApplyMutation(MutationOp::Delete(records[0].id, 5));
  ASSERT_TRUE(applied.ok());
  EXPECT_FALSE(applied.value());
  applied = service->ApplyMutation(MutationOp::Update(records[1], 4));
  ASSERT_TRUE(applied.ok());
  EXPECT_FALSE(applied.value());

  // Deleting an unknown id replays as a no-op, not an error.
  applied = service->ApplyMutation(MutationOp::Delete(31337, 6));
  ASSERT_TRUE(applied.ok());
  EXPECT_FALSE(applied.value());

  // Update above the floor upserts even when the id was never inserted.
  applied = service->ApplyMutation(MutationOp::Update(records[2], 7));
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(applied.value());
  EXPECT_TRUE(service->Contains(records[2].id));
  EXPECT_EQ(service->last_sequence(), 7u);
}

/// The bytes WriteServiceSnapshot gives for `service`'s snapshot.
std::string SnapshotBytes(const LinkageService& service) {
  std::ostringstream out;
  EXPECT_TRUE(WriteServiceSnapshot(service.ExportSnapshot(), out).ok());
  return out.str();
}

TEST(MutationTest, InstallSnapshotReconcilesDeletes) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const std::vector<Record> records = GenerateRecords(gen.value(), 5, 1);

  // Primary: records 0..3 live, record 1 tombstoned.
  std::unique_ptr<LinkageService> primary = MakeService(gen.value());
  for (size_t i = 0; i < 4; ++i) ASSERT_TRUE(primary->Insert(records[i]).ok());
  ASSERT_TRUE(primary->Delete(records[1].id).ok());
  const ServiceSnapshot snapshot = primary->ExportSnapshot();

  // Follower: has 0 and 1 live, plus record 4 the primary never saw
  // (e.g. the primary compacted its tombstone away before this sync).
  std::unique_ptr<LinkageService> follower = MakeService(gen.value());
  ASSERT_TRUE(follower->Insert(records[0]).ok());
  ASSERT_TRUE(follower->Insert(records[1]).ok());
  ASSERT_TRUE(follower->Insert(records[4]).ok());

  const Status installed = follower->InstallSnapshot(snapshot);
  ASSERT_TRUE(installed.ok()) << installed.ToString();

  EXPECT_TRUE(follower->Contains(records[0].id));
  EXPECT_FALSE(follower->Contains(records[1].id));  // snapshot tombstone
  EXPECT_TRUE(follower->Contains(records[2].id));   // absent -> inserted
  EXPECT_TRUE(follower->Contains(records[3].id));
  EXPECT_FALSE(follower->Contains(records[4].id));  // absent from snapshot
  EXPECT_EQ(follower->last_sequence(), snapshot.last_sequence);

  for (const Record& q : records) {
    EXPECT_EQ(MatchOne(*follower, q), MatchOne(*primary, q))
        << "query " << q.id;
  }
}

TEST(MutationTest, InstallSnapshotAppliesUpdatedBits) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const std::vector<Record> records = GenerateRecords(gen.value(), 6, 1);

  // Primary and follower both hold records 0..3.
  std::unique_ptr<LinkageService> primary = MakeService(gen.value());
  std::unique_ptr<LinkageService> follower = MakeService(gen.value());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(primary->Insert(records[i]).ok());
    ASSERT_TRUE(follower->Insert(records[i]).ok());
  }
  // The primary rewrites record 0, and deletes, compacts away and
  // inserts again record 1 under other values.
  Record updated = records[4];
  updated.id = records[0].id;
  ASSERT_TRUE(primary->Update(updated).ok());
  Record reinserted = records[5];
  reinserted.id = records[1].id;
  ASSERT_TRUE(primary->Delete(records[1].id).ok());
  ASSERT_TRUE(primary->Compact().ok());
  ASSERT_TRUE(primary->Insert(reinserted).ok());

  const ServiceSnapshot snapshot = primary->ExportSnapshot();
  ASSERT_TRUE(follower->InstallSnapshot(snapshot).ok());

  // The old values link nowhere, the new values link to the kept ids.
  for (const Record* old_values : {&records[0], &records[1]}) {
    EXPECT_TRUE(MatchOne(*follower, *old_values).empty())
        << "old values of " << old_values->id;
  }
  ASSERT_EQ(MatchOne(*follower, updated).size(), 1u);
  EXPECT_EQ(MatchOne(*follower, updated)[0].a_id, records[0].id);
  ASSERT_EQ(MatchOne(*follower, reinserted).size(), 1u);
  EXPECT_EQ(MatchOne(*follower, reinserted)[0].a_id, records[1].id);
  for (const Record& q : records) {
    EXPECT_EQ(MatchOne(*follower, q), MatchOne(*primary, q))
        << "query " << q.id;
  }
  EXPECT_EQ(SnapshotBytes(*follower), SnapshotBytes(*primary));
}

TEST(MutationTest, InstallSnapshotEqualsRestore) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const std::vector<Record> records = GenerateRecords(gen.value(), 40, 1);
  const std::vector<Record> rewrites = GenerateRecords(gen.value(), 4, 2);

  // Primary: records 0..29, three rewritten, three deleted.
  std::unique_ptr<LinkageService> primary = MakeService(gen.value());
  for (size_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(primary->Insert(records[i]).ok());
  }
  for (size_t i = 0; i < 3; ++i) {
    Record updated = rewrites[i];
    updated.id = records[i].id;
    ASSERT_TRUE(primary->Update(updated).ok());
    ASSERT_TRUE(primary->Delete(records[10 + i].id).ok());
  }
  const ServiceSnapshot snapshot = primary->ExportSnapshot();

  // Follower: record 29 missing, records 30..34 extra, records 0..2 with
  // their old bits, and its own tombstones (one of them also dead on the
  // primary).
  std::unique_ptr<LinkageService> follower = MakeService(gen.value());
  for (size_t i = 0; i < 35; ++i) {
    if (i != 29) {
      ASSERT_TRUE(follower->Insert(records[i]).ok());
    }
  }
  ASSERT_TRUE(follower->Delete(records[10].id).ok());
  ASSERT_TRUE(follower->Delete(records[20].id).ok());
  ASSERT_GT(follower->tombstone_count(), 0u);
  ASSERT_LE(follower->last_sequence(), snapshot.last_sequence);

  ASSERT_TRUE(follower->InstallSnapshot(snapshot).ok());
  Result<std::unique_ptr<LinkageService>> restored =
      LinkageService::Restore(snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(SnapshotBytes(*follower), SnapshotBytes(*restored.value()));
  EXPECT_EQ(follower->tombstone_count(), restored.value()->tombstone_count());
  std::vector<Record> queries = records;
  queries.insert(queries.end(), rewrites.begin(), rewrites.end());
  for (const Record& q : queries) {
    EXPECT_EQ(MatchOne(*follower, q), MatchOne(*restored.value(), q))
        << "query " << q.id;
  }
}

// Matches racing installs: every answer comes from one whole epoch, the
// one before an install or the one after it.  The TSan job runs this.
TEST(MutationTest, MatchDuringInstallSeesOneEpoch) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const std::vector<Record> records = GenerateRecords(gen.value(), 120, 1);
  LinkageServiceOptions options;
  options.execution = ExecutionOptions::WithThreads(2);

  // "Before": the first 90 records.  "After": the last 90, half of the
  // shared ones rewritten, so most queries answer differently.
  std::unique_ptr<LinkageService> service = MakeService(gen.value(), options);
  ASSERT_TRUE(service->InsertBatch(std::vector<Record>(
                  records.begin(), records.begin() + 90)).ok());
  const ServiceSnapshot before_state = service->ExportSnapshot();
  std::unique_ptr<LinkageService> other = MakeService(gen.value(), options);
  ASSERT_TRUE(other->InsertBatch(std::vector<Record>(
                  records.begin() + 30, records.end())).ok());
  for (size_t i = 30; i < 90; i += 2) {
    Record updated = records[(i + 57) % records.size()];
    updated.id = records[i].id;
    ASSERT_TRUE(other->Update(updated).ok());
  }
  const ServiceSnapshot after_state = other->ExportSnapshot();

  std::vector<std::vector<IdPair>> before(records.size());
  std::vector<std::vector<IdPair>> after(records.size());
  size_t differing = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    before[i] = MatchOne(*service, records[i]);
    after[i] = MatchOne(*other, records[i]);
    differing += before[i] != after[i] ? 1 : 0;
  }
  ASSERT_GT(differing, records.size() / 2);

  std::atomic<bool> stop{false};
  std::atomic<size_t> answered{0};
  std::vector<std::thread> matchers;
  for (size_t t = 0; t < 3; ++t) {
    matchers.emplace_back([&, t] {
      for (size_t i = t; !stop.load(std::memory_order_relaxed); ++i) {
        const size_t q = i % records.size();
        const std::vector<IdPair> got = MatchOne(*service, records[q]);
        EXPECT_TRUE(got == before[q] || got == after[q]) << "query " << q;
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (answered.load() < 3) std::this_thread::yield();
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(service->InstallSnapshot(after_state).ok());
    ASSERT_TRUE(service->InstallSnapshot(before_state).ok());
  }
  ASSERT_TRUE(service->InstallSnapshot(after_state).ok());
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : matchers) t.join();
  EXPECT_GT(answered.load(), 0u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(MatchOne(*service, records[i]), after[i]) << "query " << i;
  }
}

TEST(MutationTest, InstallSnapshotRefusesAnotherConfiguration) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const std::vector<Record> records = GenerateRecords(gen.value(), 8, 1);
  std::unique_ptr<LinkageService> service = MakeService(gen.value());
  ASSERT_TRUE(service->InsertBatch(records).ok());
  const std::string unchanged = SnapshotBytes(*service);

  // Seed 6 with the same expected q-gram counts: the record widths are
  // equal, but the vectors come from other hash functions.
  CbvHbConfig seed6 = BaseConfig(gen.value().schema());
  seed6.seed = 6;
  Result<std::unique_ptr<LinkageService>> other =
      LinkageService::Create(seed6);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(other.value()->InsertBatch(records).ok());
  const ServiceSnapshot foreign = other.value()->ExportSnapshot();
  ASSERT_EQ(foreign.records[0].bits.size(),
            service->encoder().total_bits());
  EXPECT_EQ(service->InstallSnapshot(foreign).code(),
            StatusCode::kInvalidArgument);

  // Every configuration field the snapshot carries is compared.
  const ServiceSnapshot own = service->ExportSnapshot();
  const std::vector<std::function<void(ServiceSnapshot*)>> edits = {
      [](ServiceSnapshot* s) { s->attributes[0].name += "X"; },
      [](ServiceSnapshot* s) { s->attributes[1].alphabet_symbols += "#"; },
      [](ServiceSnapshot* s) { s->attributes[2].qgram_q = 3; },
      [](ServiceSnapshot* s) {
        s->attributes[3].qgram_pad = !s->attributes[3].qgram_pad;
      },
      [](ServiceSnapshot* s) { s->expected_qgrams[0] += 1; },
      [](ServiceSnapshot* s) { s->rule_text = "(f1 <= 4)"; },
      [](ServiceSnapshot* s) { s->record_K += 1; },
      [](ServiceSnapshot* s) { s->record_theta += 1; },
      [](ServiceSnapshot* s) { s->delta = 0.2; },
      [](ServiceSnapshot* s) { s->sizing_max_collisions = 2; },
      [](ServiceSnapshot* s) { s->sizing_confidence_ratio = 0.5; },
      [](ServiceSnapshot* s) { s->seed += 1; },
      [](ServiceSnapshot* s) { s->max_bucket_size = 7; },
      [](ServiceSnapshot* s) { s->overflow_policy = 1 - s->overflow_policy; },
  };
  for (size_t i = 0; i < edits.size(); ++i) {
    ServiceSnapshot edited = own;
    edits[i](&edited);
    EXPECT_EQ(service->InstallSnapshot(edited).code(),
              StatusCode::kInvalidArgument)
        << "edit " << i;
  }
  EXPECT_EQ(SnapshotBytes(*service), unchanged);
  EXPECT_TRUE(service->InstallSnapshot(own).ok());

  // A restored service accepts its own snapshot.
  Result<std::unique_ptr<LinkageService>> restored =
      LinkageService::Restore(own);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(
      restored.value()->InstallSnapshot(restored.value()->ExportSnapshot())
          .ok());
  EXPECT_EQ(SnapshotBytes(*restored.value()), unchanged);
}

}  // namespace
}  // namespace cbvlink
