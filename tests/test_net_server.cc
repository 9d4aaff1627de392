// End-to-end tests for the network serving tier (src/net/server.h):
// loopback clients against a real epoll server — result equivalence with
// in-process calls, pipelined overload shedding, HTTP endpoints,
// read-only mode, journal-backed crash recovery, warm-standby
// replication and promotion, and idle-connection sweeping.

#include "src/net/server.h"

#include <gtest/gtest.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/failpoint.h"
#include "src/common/str.h"
#include "src/datagen/generators.h"
#include "src/io/journal.h"
#include "src/io/serialization.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/replication.h"
#include "src/net/status_map.h"
#include "src/service/linkage_service.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace_sink.h"

namespace cbvlink {
namespace net {
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

std::string TempPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// Polls `pred` (10ms cadence) until true or `timeout_ms` elapses.
bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// One raw HTTP/1.1 exchange: connect, send `request` (which must carry
/// "Connection: close"), read until the server closes.
std::string HttpExchange(uint16_t port, const std::string& request) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo("127.0.0.1", std::to_string(port).c_str(), &hints, &res) !=
      0) {
    return "";
  }
  const int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(res);
    return "";
  }
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpGet(uint16_t port, const std::string& target) {
  return HttpExchange(port, "GET " + target +
                                " HTTP/1.1\r\nHost: t\r\nConnection: close"
                                "\r\n\r\n");
}

std::string HttpPost(uint16_t port, const std::string& target,
                     const std::string& body) {
  return HttpExchange(
      port, "POST " + target + " HTTP/1.1\r\nHost: t\r\nConnection: close"
                               "\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body);
}

/// A service pre-loaded with `n` generated records plus the generator's
/// record set, and a running server.
struct ServingFixture {
  std::unique_ptr<NcvrGenerator> gen;
  std::unique_ptr<LinkageService> service;
  std::unique_ptr<NetServer> server;
  std::vector<Record> records;

  static ServingFixture Start(size_t n, NetServerOptions options = {}) {
    ServingFixture f;
    Result<NcvrGenerator> gen = NcvrGenerator::Create();
    EXPECT_TRUE(gen.ok());
    f.gen = std::make_unique<NcvrGenerator>(std::move(gen.value()));
    Result<std::unique_ptr<LinkageService>> service =
        LinkageService::Create(BaseConfig(f.gen->schema()));
    EXPECT_TRUE(service.ok());
    f.service = std::move(service.value());
    f.records = GenerateRecords(*f.gen, n, 21);
    for (const Record& r : f.records) {
      EXPECT_TRUE(f.service->Insert(r).ok());
    }
    Result<std::unique_ptr<NetServer>> server =
        NetServer::Start(f.service.get(), options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    f.server = std::move(server.value());
    return f;
  }
};

TEST(NetServerTest, StartsOnEphemeralPortAndShutsDownIdempotently) {
  ServingFixture f = ServingFixture::Start(2);
  EXPECT_GT(f.server->port(), 0);
  Result<std::unique_ptr<NetClient>> client =
      NetClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client.value()->Ping().ok());
  f.server->Shutdown();
  f.server->Shutdown();  // idempotent
  EXPECT_FALSE(client.value()->Ping().ok());  // connections are closed
}

// Concurrent network clients must see byte-identical match results to
// in-process calls against the same service.
TEST(NetServerTest, ConcurrentClientsMatchInProcessResults) {
  ServingFixture f = ServingFixture::Start(40);

  // In-process ground truth: every record queried back with a fresh id.
  std::vector<std::vector<IdPair>> expected(f.records.size());
  std::vector<Record> queries = f.records;
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].id = 1000 + i;
    ASSERT_TRUE(f.service->Match(queries[i], &expected[i]).ok());
  }

  constexpr size_t kThreads = 4;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Result<std::unique_ptr<NetClient>> client =
          NetClient::Connect("127.0.0.1", f.server->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (size_t i = t; i < queries.size(); i += kThreads) {
        std::vector<IdPair> got;
        if (!client.value()->Match(queries[i], &got).ok() ||
            Sorted(got) != Sorted(expected[i])) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST(NetServerTest, MatchAndInsertOverTheWire) {
  ServingFixture f = ServingFixture::Start(10);
  Result<std::unique_ptr<NetClient>> client =
      NetClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());

  // A duplicate of record 0 arriving with a new id links to it...
  Record dup = f.records[0];
  dup.id = 500;
  std::vector<IdPair> pairs;
  ASSERT_TRUE(client.value()->MatchAndInsert(dup, &pairs).ok());
  bool found = false;
  for (const IdPair& p : pairs) {
    found = found || (p.a_id == f.records[0].id && p.b_id == 500u);
  }
  EXPECT_TRUE(found);
  // ...and is itself indexed afterwards.
  EXPECT_TRUE(WaitUntil([&]() { return f.service->Contains(500); }, 1000));

  Record next = f.records[0];
  next.id = 501;
  pairs.clear();
  ASSERT_TRUE(client.value()->Match(next, &pairs).ok());
  bool linked_to_500 = false;
  for (const IdPair& p : pairs) {
    linked_to_500 = linked_to_500 || p.a_id == 500u;
  }
  EXPECT_TRUE(linked_to_500);
}

TEST(NetServerTest, MalformedBinaryPayloadAnswersErrorAndCountsSkippedRow) {
  ServingFixture f = ServingFixture::Start(2);
  Result<std::unique_ptr<NetClient>> client =
      NetClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());

  Frame reply;
  ASSERT_TRUE(client.value()->Call(MsgType::kInsert, "not a record", &reply).ok());
  ASSERT_EQ(reply.type, MsgType::kError);
  Status carried = Status::OK();
  ASSERT_TRUE(DecodeErrorPayload(reply.payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(f.service->metrics().skipped_rows, 1u);

  // The connection survives a rejected payload.
  EXPECT_TRUE(client.value()->Ping().ok());
}

// Overload shedding: pipeline far more requests than the admission queue
// holds while one slow worker is pinned; the excess must come back as
// ResourceExhausted errors — quickly, not after queueing behind the
// slow request — and every request must get exactly one reply.
TEST(NetServerTest, PipelinedBurstShedsBeyondTheAdmissionQueue) {
  NetServerOptions options;
  options.num_workers = 1;
  options.max_queue = 2;
  ServingFixture f = ServingFixture::Start(10, options);

  // Pin the worker inside the first admitted match.
  Failpoints::Activate("index.collect", FailpointAction::kDelay, 100);

  Result<std::unique_ptr<NetClient>> client =
      NetClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());

  constexpr size_t kBurst = 32;
  Record base = f.records[0];
  base.id = 2000;
  size_t ok = 0;
  size_t shed = 0;
  size_t other = 0;
  const Status burst = client.value()->PipelinedBurst(
      MsgType::kMatch, base, kBurst,
      [&](size_t, const Frame& frame) {
        if (frame.type == MsgType::kMatchResult) {
          ++ok;
          return;
        }
        Status carried = Status::OK();
        if (frame.type == MsgType::kError &&
            DecodeErrorPayload(frame.payload, &carried).ok() &&
            carried.code() == StatusCode::kResourceExhausted) {
          ++shed;
        } else {
          ++other;
        }
      });
  Failpoints::DeactivateAll();

  ASSERT_TRUE(burst.ok()) << burst.ToString();
  EXPECT_EQ(ok + shed + other, kBurst);
  EXPECT_EQ(other, 0u);
  EXPECT_GE(ok, 1u);
  EXPECT_GE(shed, 1u);

  // The connection is still healthy after shedding.
  EXPECT_TRUE(client.value()->Ping().ok());
}

TEST(NetServerTest, ReadOnlyModeRejectsMutations) {
  NetServerOptions options;
  options.read_only = true;
  ServingFixture f = ServingFixture::Start(5, options);
  Result<std::unique_ptr<NetClient>> client =
      NetClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());

  Record record = f.records[0];
  record.id = 700;
  EXPECT_EQ(client.value()->Insert(record).code(),
            StatusCode::kFailedPrecondition);
  std::vector<IdPair> pairs;
  EXPECT_EQ(client.value()->MatchAndInsert(record, &pairs).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.value()->Delete(f.records[1].id).code(),
            StatusCode::kFailedPrecondition);
  Record replacement = f.records[3];
  replacement.id = f.records[2].id;
  EXPECT_EQ(client.value()->Update(replacement).code(),
            StatusCode::kFailedPrecondition);
  // The gate comes before the payload: a malformed record is refused as
  // a mutation, not counted as a skipped row.
  Frame reply;
  ASSERT_TRUE(
      client.value()->Call(MsgType::kUpdate, "not a record", &reply).ok());
  ASSERT_EQ(reply.type, MsgType::kError);
  Status carried = Status::OK();
  ASSERT_TRUE(DecodeErrorPayload(reply.payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(f.service->Contains(700));

  // Reads still work.
  EXPECT_TRUE(client.value()->Match(record, &pairs).ok());

  // The HTTP mapping answers 403 for the same operations.
  const std::string body = R"({"id": 701, "fields": ["A", "B", "C", "D"]})";
  for (const char* target : {"/insert", "/match_and_insert"}) {
    EXPECT_NE(HttpPost(f.server->port(), target, body).find("403 Forbidden"),
              std::string::npos)
        << target;
  }
  const std::string records_target =
      "/records/" + std::to_string(f.records[1].id);
  for (const char* method : {"DELETE", "PUT"}) {
    const std::string resp = HttpExchange(
        f.server->port(),
        std::string(method) + " " + records_target +
            " HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body);
    EXPECT_NE(resp.find("403 Forbidden"), std::string::npos) << method;
  }

  // Nothing changed: every record is still live, none was added.
  EXPECT_FALSE(f.service->Contains(701));
  EXPECT_EQ(f.service->size(), f.records.size());
  for (const Record& r : f.records) EXPECT_TRUE(f.service->Contains(r.id));
  EXPECT_EQ(f.service->metrics().skipped_rows, 0u);
}

TEST(NetServerTest, HttpEndpoints) {
  ServingFixture f = ServingFixture::Start(10);
  const uint16_t port = f.server->port();

  const std::string health = HttpGet(port, "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  // A duplicate of record 0 posted as JSON matches it.
  const Record& r0 = f.records[0];
  std::string body = R"({"id": 900, "fields": [)";
  for (size_t i = 0; i < r0.fields.size(); ++i) {
    if (i > 0) body += ",";
    body += "\"" + r0.fields[i] + "\"";
  }
  body += "]}";
  const std::string match = HttpPost(port, "/match", body);
  EXPECT_NE(match.find("200 OK"), std::string::npos);
  EXPECT_NE(match.find("\"pairs\":["), std::string::npos);
  EXPECT_NE(match.find("[" + std::to_string(r0.id) + ",900]"),
            std::string::npos);

  // Insert over HTTP, then verify in process.
  std::string insert_body = body;
  const size_t id_pos = insert_body.find("900");
  insert_body.replace(id_pos, 3, "901");
  const std::string inserted = HttpPost(port, "/insert", insert_body);
  EXPECT_NE(inserted.find("200 OK"), std::string::npos);
  EXPECT_TRUE(WaitUntil([&]() { return f.service->Contains(901); }, 1000));

  // Malformed JSON answers 400 and counts a skipped row.
  const uint64_t skipped_before = f.service->metrics().skipped_rows;
  const std::string bad = HttpPost(port, "/match", "{nonsense");
  EXPECT_NE(bad.find("400 Bad Request"), std::string::npos);
  EXPECT_EQ(f.service->metrics().skipped_rows, skipped_before + 1);

  // Unknown target answers 404.
  EXPECT_NE(HttpGet(port, "/nope").find("404 Not Found"), std::string::npos);

  // Telemetry endpoints expose the net metrics.
  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("net_requests_total"), std::string::npos);
  EXPECT_NE(metrics.find("net_connections_accepted_total"), std::string::npos);
  const std::string stats = HttpGet(port, "/stats");
  EXPECT_NE(stats.find("net_requests_total"), std::string::npos);
}

TEST(NetServerTest, BinaryStatsCallReturnsTelemetryJson) {
  ServingFixture f = ServingFixture::Start(3);
  Result<std::unique_ptr<NetClient>> client =
      NetClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());
  std::string json;
  ASSERT_TRUE(client.value()->Stats(&json).ok());
  EXPECT_NE(json.find("net_requests_total"), std::string::npos);
  EXPECT_NE(json.find("service_records"), std::string::npos);
}

// An insert acknowledged over the wire must survive a crash: replaying
// the journal into a fresh service restores it.
TEST(NetServerTest, AcknowledgedNetworkInsertSurvivesRestartViaJournal) {
  const std::string journal_path = TempPath("net_server_recovery.cbvj");
  ServingFixture f = ServingFixture::Start(8);
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    f.service->AttachJournal(std::move(journal.value()));
  }

  Result<std::unique_ptr<NetClient>> client =
      NetClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());
  Record record = f.records[0];
  record.id = 600;
  ASSERT_TRUE(client.value()->Insert(record).ok());

  // "Crash": tear down the serving process state without any snapshot.
  f.server->Shutdown();
  f.service.reset();

  Result<std::unique_ptr<LinkageService>> restarted =
      LinkageService::Create(BaseConfig(f.gen->schema()));
  ASSERT_TRUE(restarted.ok());
  for (const Record& r : f.records) {
    ASSERT_TRUE(restarted.value()->Insert(r).ok());
  }
  Result<JournalReplayStats> stats =
      restarted.value()->ReplayJournalFile(journal_path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().applied, 1u);
  EXPECT_TRUE(restarted.value()->Contains(600));
}

TEST(NetServerTest, ReplicaFollowsPrimaryAndPromotes) {
  const std::string journal_path = TempPath("net_replica.cbvj");
  const std::string snapshot_path = TempPath("net_replica.cbvs");
  ServingFixture f = ServingFixture::Start(20);
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    f.service->AttachJournal(std::move(journal.value()));
  }

  ReplicaOptions options;
  options.primary_port = f.server->port();
  options.poll_interval_ms = 20;
  Result<std::unique_ptr<Replica>> replica = Replica::Start(options);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();

  // The initial sync is synchronous: the snapshot's records are there.
  EXPECT_EQ(replica.value()->service()->size(), 20u);

  // Live inserts flow through the journal to the follower.
  const std::vector<Record> extra = GenerateRecords(*f.gen, 25, 21);
  for (size_t i = 20; i < 25; ++i) {
    ASSERT_TRUE(f.service->Insert(extra[i]).ok());
  }
  ASSERT_TRUE(WaitUntil([&]() {
    return replica.value()->service()->Contains(extra[24].id);
  })) << "last error: " << replica.value()->progress().last_error;
  // A record is visible before the follower publishes its progress, so
  // the counters are awaited too.
  EXPECT_TRUE(WaitUntil([&]() {
    return replica.value()->progress().applied_records >= 5;
  })) << "applied " << replica.value()->progress().applied_records;
  EXPECT_GE(replica.value()->progress().syncs, 1u);

  // A snapshot save rotates the journal (epoch bump) under the
  // follower's cursor; it must re-sync and keep following.
  ASSERT_TRUE(f.service->SaveSnapshotToFile(snapshot_path).ok());
  Record after_rotate = f.records[0];
  after_rotate.id = 800;
  ASSERT_TRUE(f.service->Insert(after_rotate).ok());
  ASSERT_TRUE(WaitUntil([&]() {
    return replica.value()->service()->Contains(800);
  })) << "last error: " << replica.value()->progress().last_error;
  EXPECT_TRUE(WaitUntil([&]() {
    return replica.value()->progress().syncs >= 2;
  })) << "syncs " << replica.value()->progress().syncs;

  // Post-rotation the follower must tail via kFetchJournal reads of the
  // rotated fd — a fetch error would degrade it to snapshot re-syncs
  // and leave last_error set (regression: DropCommitted once installed
  // a write-only fd, so every post-rotation ReadSegment failed).
  Record tail_record = f.records[1];
  tail_record.id = 802;
  ASSERT_TRUE(f.service->Insert(tail_record).ok());
  ASSERT_TRUE(WaitUntil([&]() {
    return replica.value()->service()->Contains(802);
  })) << "last error: " << replica.value()->progress().last_error;
  EXPECT_TRUE(replica.value()->progress().last_error.empty())
      << replica.value()->progress().last_error;

  // Promotion: the primary dies, the standby takes over writable.
  f.server->Shutdown();
  std::unique_ptr<LinkageService> promoted = replica.value()->Promote();
  ASSERT_NE(promoted, nullptr);
  EXPECT_EQ(replica.value()->service(), nullptr);
  EXPECT_EQ(promoted->size(), 27u);
  Record post_promotion = f.records[1];
  post_promotion.id = 801;
  EXPECT_TRUE(promoted->Insert(post_promotion).ok());
  EXPECT_TRUE(promoted->Contains(801));
}

// A re-sync must carry an update the follower never saw as a journal
// frame: the primary updates a record and saves a snapshot (rotating the
// journal, which drops the update's frame) between two follower polls.
TEST(NetServerTest, ReplicaResyncAppliesAMissedUpdate) {
  const std::string journal_path = TempPath("net_resync.cbvj");
  const std::string snapshot_path = TempPath("net_resync.cbvs");
  ServingFixture f = ServingFixture::Start(20);
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    f.service->AttachJournal(std::move(journal.value()));
  }

  ReplicaOptions options;
  options.primary_port = f.server->port();
  options.poll_interval_ms = 1000;
  Result<std::unique_ptr<Replica>> replica = Replica::Start(options);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  LinkageService* follower = replica.value()->service();

  // Let the follower catch up on one insert, so its next poll is a full
  // interval away.
  Record marker = f.records[2];
  marker.id = 900;
  ASSERT_TRUE(f.service->Insert(marker).ok());
  ASSERT_TRUE(WaitUntil([&]() { return follower->Contains(900); }))
      << "last error: " << replica.value()->progress().last_error;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const Record old_values = f.records[0];
  Record updated = GenerateRecords(*f.gen, 1, 99)[0];
  updated.id = old_values.id;
  ASSERT_TRUE(f.service->Update(updated).ok());
  ASSERT_TRUE(f.service->SaveSnapshotToFile(snapshot_path).ok());
  ASSERT_TRUE(WaitUntil([&]() {
    return replica.value()->progress().syncs >= 2;
  })) << "syncs " << replica.value()->progress().syncs;

  for (const Record& values : {old_values, updated}) {
    Record query = values;
    query.id = 5000;
    std::vector<IdPair> on_primary;
    std::vector<IdPair> on_follower;
    ASSERT_TRUE(f.service->Match(query, &on_primary).ok());
    ASSERT_TRUE(follower->Match(query, &on_follower).ok());
    EXPECT_EQ(on_follower, on_primary) << "query " << values.fields[0];
  }
  std::vector<IdPair> hits;
  Record query = updated;
  query.id = 5000;
  ASSERT_TRUE(follower->Match(query, &hits).ok());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].a_id, old_values.id);
  replica.value()->Stop();
}

/// Connects a raw TCP socket to 127.0.0.1:`port`; returns the fd or -1.
int RawConnect(uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo("127.0.0.1", std::to_string(port).c_str(), &hints, &res) !=
      0) {
    return -1;
  }
  int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd >= 0 && ::connect(fd, res->ai_addr, res->ai_addrlen) != 0) {
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0) {
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  return fd;
}

bool RawSendAll(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one reply frame off a raw socket (blocking, bounded by the
/// socket's recv timeout).  Returns false on close/timeout.
bool RawReadFrame(int fd, Frame* out) {
  FrameDecoder decoder;
  char buf[4096];
  while (true) {
    switch (decoder.Pop(out)) {
      case FrameDecoder::Next::kFrame:
        return true;
      case FrameDecoder::Next::kCorrupt:
        return false;
      case FrameDecoder::Next::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

// Satellite (c): a slow-loris connection — bytes of a request trickling
// in but never completing — must be reaped by the per-request progress
// deadline even while it keeps "active" by sending a byte now and then.
TEST(NetServerTest, SlowLorisPartialRequestIsReapedByProgressDeadline) {
  NetServerOptions options;
  options.request_progress_timeout_ms = 150;
  ServingFixture f = ServingFixture::Start(2, options);

  const int fd = RawConnect(f.server->port());
  ASSERT_GE(fd, 0);
  // A frame header promising a payload that never arrives, topped up
  // with one stray byte to defeat any idle-only sweep.
  std::string frame(kBinaryPreamble, sizeof(kBinaryPreamble));
  EncodeFrame(MsgType::kPing, std::string(100, 'x'), &frame);
  ASSERT_TRUE(RawSendAll(fd, frame.substr(0, 10)));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(RawSendAll(fd, frame.substr(10, 1)));

  // The server must close the connection once the request has been
  // partial for longer than the progress deadline.
  char buf[64];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  EXPECT_LE(n, 0);
  ::close(fd);

  // And the server itself is unharmed.
  Result<std::unique_ptr<NetClient>> fresh =
      NetClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh.value()->Ping().ok());
}

// Deadline propagation, admission side: an HTTP request whose deadline
// has already expired is shed with 504, never queued.
TEST(NetServerTest, ExpiredHttpDeadlineIsShedWith504) {
  ServingFixture f = ServingFixture::Start(2);
  const std::string response = HttpExchange(
      f.server->port(),
      "POST /match HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
      "X-Deadline-Ms: 0\r\nContent-Length: 2\r\n\r\n{}");
  EXPECT_NE(response.find("504"), std::string::npos) << response;
  EXPECT_NE(response.find("eadline"), std::string::npos) << response;
}

// Deadline propagation, dequeue side: a request that waited out its
// budget in the admission queue is answered DEADLINE_EXCEEDED by the
// worker instead of being executed.
TEST(NetServerTest, QueuedRequestPastItsDeadlineIsShedAtDequeue) {
  NetServerOptions options;
  options.num_workers = 1;
  ServingFixture f = ServingFixture::Start(4, options);

  // Pin the single worker for ~400ms.
  Failpoints::Activate("index.collect", FailpointAction::kDelay, 400);
  std::thread pinner([&] {
    Result<std::unique_ptr<NetClient>> client =
        NetClient::Connect("127.0.0.1", f.server->port());
    ASSERT_TRUE(client.ok());
    std::vector<IdPair> pairs;
    Record q = f.records[0];
    q.id = 900;
    EXPECT_TRUE(client.value()->Match(q, &pairs).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // A second request with a 50ms budget queues behind the pinned batch
  // and expires there.  Raw frames so OUR read has no local deadline.
  const int fd = RawConnect(f.server->port());
  ASSERT_GE(fd, 0);
  std::string wire(kBinaryPreamble, sizeof(kBinaryPreamble));
  std::string payload;
  EncodeDeadlinePayload(50, &payload);
  EncodeFrame(MsgType::kDeadline, payload, &wire);
  Record q = f.records[1];
  q.id = 901;
  payload.clear();
  WireEncodeRecord(q, &payload);
  EncodeFrame(MsgType::kMatch, payload, &wire);
  ASSERT_TRUE(RawSendAll(fd, wire));

  Frame reply;
  ASSERT_TRUE(RawReadFrame(fd, &reply));
  EXPECT_EQ(reply.type, MsgType::kError);
  Status carried = Status::OK();
  ASSERT_TRUE(DecodeErrorPayload(reply.payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kDeadlineExceeded)
      << carried.ToString();
  ::close(fd);
  pinner.join();
  Failpoints::DeactivateAll();
}

// Graceful drain: /readyz flips to 503, new work requests are shed with
// 429, admitted work finishes, and Drain() then reports success.
TEST(NetServerTest, DrainFailsReadinessShedsNewWorkAndFinishesAdmitted) {
  NetServerOptions options;
  options.num_workers = 1;
  ServingFixture f = ServingFixture::Start(4, options);

  EXPECT_NE(HttpGet(f.server->port(), "/readyz").find("200"),
            std::string::npos);

  // Pre-open connections, and exchange one request on each BEFORE the
  // drain: connect() returning only proves the kernel backlog took the
  // handshake, and a draining server stops accepting — a never-accepted
  // fd would hang unanswered.  (Done before the failpoint pins the
  // single worker, so these exchanges return immediately.)
  const int probe_fd = RawConnect(f.server->port());
  const int work_fd = RawConnect(f.server->port());
  ASSERT_GE(probe_fd, 0);
  ASSERT_GE(work_fd, 0);
  {
    std::string preamble_ping(kBinaryPreamble, sizeof(kBinaryPreamble));
    EncodeFrame(MsgType::kPing, {}, &preamble_ping);
    ASSERT_TRUE(RawSendAll(work_fd, preamble_ping));
    Frame pong;
    ASSERT_TRUE(RawReadFrame(work_fd, &pong));
    ASSERT_EQ(pong.type, MsgType::kPong);
  }
  ASSERT_TRUE(RawSendAll(probe_fd,
                         "GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n"));
  {
    // One keep-alive response; readiness still 200 before the drain.
    std::string ready;
    char buf[4096];
    while (ready.find("\r\n\r\nok\n") == std::string::npos) {
      const ssize_t n = ::recv(probe_fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0);
      ready.append(buf, static_cast<size_t>(n));
    }
    EXPECT_NE(ready.find("200"), std::string::npos) << ready;
  }

  Failpoints::Activate("index.collect", FailpointAction::kDelay, 400);
  std::atomic<bool> match_ok{false};
  std::thread pinner([&] {
    Result<std::unique_ptr<NetClient>> client =
        NetClient::Connect("127.0.0.1", f.server->port());
    ASSERT_TRUE(client.ok());
    std::vector<IdPair> pairs;
    Record q = f.records[0];
    q.id = 910;
    match_ok.store(client.value()->Match(q, &pairs).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::atomic<bool> drained{false};
  std::thread drainer([&] { drained.store(f.server->Drain(5000)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(f.server->draining());

  // Probes still answer — with failed readiness.
  ASSERT_TRUE(RawSendAll(probe_fd,
                         "GET /readyz HTTP/1.1\r\nHost: t\r\n"
                         "Connection: close\r\n\r\n"));
  std::string probe_response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(probe_fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    probe_response.append(buf, static_cast<size_t>(n));
  }
  ::close(probe_fd);
  EXPECT_NE(probe_response.find("503"), std::string::npos) << probe_response;

  // New work is refused while draining (the connection already sent its
  // preamble with the pre-drain ping).
  std::string wire;
  std::string payload;
  Record q = f.records[1];
  q.id = 911;
  WireEncodeRecord(q, &payload);
  EncodeFrame(MsgType::kMatch, payload, &wire);
  ASSERT_TRUE(RawSendAll(work_fd, wire));
  Frame reply;
  ASSERT_TRUE(RawReadFrame(work_fd, &reply));
  EXPECT_EQ(reply.type, MsgType::kError);
  Status carried = Status::OK();
  ASSERT_TRUE(DecodeErrorPayload(reply.payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kResourceExhausted)
      << carried.ToString();
  ::close(work_fd);

  drainer.join();
  pinner.join();
  EXPECT_TRUE(drained.load());   // admitted work finished in time
  EXPECT_TRUE(match_ok.load());  // and was answered, not dropped
  Failpoints::DeactivateAll();
}

// Satellite (a): Replica::Stop() must return promptly even when the
// follow thread is deep in a long poll wait (regression: it used to
// sleep the full poll_interval_ms in one blind sleep).
TEST(NetServerTest, ReplicaStopReturnsPromptlyDuringLongPollWait) {
  ServingFixture f = ServingFixture::Start(6);
  const std::string journal_path = TempPath("net_replica_stop.cbvj");
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    f.service->AttachJournal(std::move(journal.value()));
  }
  ReplicaOptions options;
  options.primary_port = f.server->port();
  options.poll_interval_ms = 60 * 1000;  // would stall Stop for a minute
  Result<std::unique_ptr<Replica>> replica = Replica::Start(options);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  // Let the follow thread reach its caught-up wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const auto begin = std::chrono::steady_clock::now();
  replica.value()->Stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - begin)
                           .count();
  EXPECT_LT(elapsed, 1000) << "Stop took " << elapsed << "ms";
}

// ...and equally promptly while backing off from a dead primary.
TEST(NetServerTest, ReplicaStopReturnsPromptlyWhileBackingOff) {
  ServingFixture f = ServingFixture::Start(6);
  const std::string journal_path = TempPath("net_replica_stop2.cbvj");
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    f.service->AttachJournal(std::move(journal.value()));
  }
  ReplicaOptions options;
  options.primary_port = f.server->port();
  options.poll_interval_ms = 20;
  options.connect_timeout_ms = 200;
  options.io_timeout_ms = 200;
  options.failure_backoff.base_ms = 10 * 1000;  // long failure waits
  Result<std::unique_ptr<Replica>> replica = Replica::Start(options);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();

  f.server->Shutdown();  // primary dies; the follower starts failing
  ASSERT_TRUE(WaitUntil([&] {
    return replica.value()->progress().consecutive_failures > 0;
  }));

  const auto begin = std::chrono::steady_clock::now();
  replica.value()->Stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - begin)
                           .count();
  EXPECT_LT(elapsed, 2000) << "Stop took " << elapsed << "ms";
}

// A standby's service runs on the execution its options name, not on one
// worker per hardware thread (`cbvlink_serve --follow --num-threads`).
TEST(NetServerTest, ReplicaServiceHonoursExecutionOptions) {
  ServingFixture f = ServingFixture::Start(6);
  const std::string journal_path = TempPath("net_replica_threads.cbvj");
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    f.service->AttachJournal(std::move(journal.value()));
  }
  ReplicaOptions options;
  options.primary_port = f.server->port();
  options.poll_interval_ms = 20;
  options.execution = ExecutionOptions::WithThreads(1);
  Result<std::unique_ptr<Replica>> replica = Replica::Start(options);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  EXPECT_EQ(replica.value()->service()->size(), 6u);
  EXPECT_EQ(replica.value()->service()->options().execution.num_threads, 1u);
  replica.value()->Stop();
}

TEST(NetServerTest, IdleConnectionsAreSweptAfterTheTimeout) {
  NetServerOptions options;
  options.idle_timeout_ms = 100;
  ServingFixture f = ServingFixture::Start(2, options);
  Result<std::unique_ptr<NetClient>> client =
      NetClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->Ping().ok());

  // The sweep runs every second; well past it the connection is gone.
  std::this_thread::sleep_for(std::chrono::milliseconds(1600));
  EXPECT_FALSE(client.value()->Ping().ok());

  // New connections are of course still welcome.
  Result<std::unique_ptr<NetClient>> fresh =
      NetClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh.value()->Ping().ok());
}

// --- wire pinning -----------------------------------------------------------

std::string FrameBytes(MsgType type, std::string_view payload) {
  std::string out;
  EncodeFrame(type, payload, &out);
  return out;
}

std::string RecordPayload(const Record& record) {
  std::string payload;
  WireEncodeRecord(record, &payload);
  return payload;
}

std::string DeletePayload(RecordId id) {
  std::string payload;
  EncodeDeletePayload(id, &payload);
  return payload;
}

std::string ErrorFrame(const Status& status) {
  std::string payload;
  EncodeErrorPayload(status, &payload);
  return FrameBytes(MsgType::kError, payload);
}

std::string PairsFrame(const std::vector<IdPair>& pairs) {
  std::string payload;
  EncodePairs(pairs, &payload);
  return FrameBytes(MsgType::kMatchResult, payload);
}

std::string HttpRequestText(const std::string& method,
                            const std::string& target,
                            const std::string& body, bool keep_alive) {
  return method + " " + target + " HTTP/1.1\r\nHost: t\r\nConnection: " +
         (keep_alive ? "keep-alive" : "close") +
         "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
         body;
}

std::string HttpError(const Status& status, bool keep_alive) {
  return HttpResponse(HttpCodeFor(status), "application/json",
                      StatusToJson(status), keep_alive);
}

std::string JsonRecord(const Record& record, bool with_id = true) {
  std::string body = "{";
  if (with_id) body += "\"id\": " + std::to_string(record.id) + ", ";
  body += "\"fields\": [";
  for (size_t i = 0; i < record.fields.size(); ++i) {
    if (i > 0) body += ",";
    body += "\"" + record.fields[i] + "\"";
  }
  return body + "]}";
}

Record WithId(Record record, RecordId id) {
  record.id = id;
  return record;
}

/// Reads `n` complete replies off a raw socket: binary frames (returned
/// re-encoded, so they compare byte-for-byte with EncodeFrame output) or
/// HTTP responses framed by their Content-Length.  Stops early on close
/// or timeout.
std::vector<std::string> ReadReplies(int fd, size_t n, bool http) {
  std::vector<std::string> replies;
  FrameDecoder decoder;
  std::string buffer;
  char buf[16 * 1024];
  while (replies.size() < n) {
    if (http) {
      const size_t header_end = buffer.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const size_t cl = buffer.find("Content-Length: ");
        const size_t length =
            std::stoul(buffer.substr(cl + std::strlen("Content-Length: ")));
        const size_t total = header_end + 4 + length;
        if (buffer.size() >= total) {
          replies.push_back(buffer.substr(0, total));
          buffer.erase(0, total);
          continue;
        }
      }
    } else {
      Frame frame;
      const FrameDecoder::Next next = decoder.Pop(&frame);
      if (next == FrameDecoder::Next::kCorrupt) break;
      if (next == FrameDecoder::Next::kFrame) {
        replies.push_back(FrameBytes(frame.type, frame.payload));
        continue;
      }
    }
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    if (http) {
      buffer.append(buf, static_cast<size_t>(got));
    } else {
      decoder.Feed(std::string_view(buf, static_cast<size_t>(got)));
    }
  }
  return replies;
}

/// One binary request on a fresh connection; returns the reply frame's
/// bytes ("" on a transport failure).
std::string BinaryExchange(uint16_t port, MsgType type,
                           std::string_view payload) {
  const int fd = RawConnect(port);
  if (fd < 0) return "";
  std::string wire(kBinaryPreamble, sizeof(kBinaryPreamble));
  EncodeFrame(type, payload, &wire);
  std::vector<std::string> replies;
  if (RawSendAll(fd, wire)) replies = ReadReplies(fd, 1, /*http=*/false);
  ::close(fd);
  return replies.empty() ? "" : replies[0];
}

/// One row of the wire table: the request, the exact reply it must earn
/// (computed just before sending, so expected match pairs reflect the
/// state earlier rows left) or, where the body changes from call to
/// call, a predicate the reply must satisfy; the skipped rows it adds;
/// and the service state it must leave.
struct WireCase {
  std::string name;
  std::function<std::string(uint16_t port)> send;
  std::function<std::string()> reply;
  uint64_t skipped = 0;
  std::function<bool(const LinkageService&)> state = nullptr;
  std::function<bool(const std::string&)> accepts = nullptr;
};

std::function<std::string(uint16_t)> Binary(MsgType type,
                                             std::string payload) {
  return [type, payload](uint16_t port) {
    return BinaryExchange(port, type, payload);
  };
}

std::function<std::string(uint16_t)> Http(std::string method,
                                           std::string target,
                                           std::string body = "") {
  return [method, target, body](uint16_t port) {
    return HttpExchange(port, HttpRequestText(method, target, body, false));
  };
}

std::function<std::string()> Exactly(std::string bytes) {
  return [bytes] { return bytes; };
}

/// Accepts a reply frame of `type` whose payload contains `needle`.
std::function<bool(const std::string&)> FrameWith(MsgType type,
                                                  std::string needle) {
  return [type, needle](const std::string& got) {
    FrameDecoder decoder;
    decoder.Feed(got);
    Frame frame;
    return decoder.Pop(&frame) == FrameDecoder::Next::kFrame &&
           frame.type == type && !frame.payload.empty() &&
           frame.payload.find(needle) != std::string::npos;
  };
}

/// Accepts an HTTP response that starts with `head` and contains `needle`.
std::function<bool(const std::string&)> HttpWith(std::string head,
                                                 std::string needle) {
  return [head, needle](const std::string& got) {
    return got.compare(0, head.size(), head) == 0 &&
           got.find(needle) != std::string::npos;
  };
}

// Every op on both protocols, one request per connection: reply bytes,
// skipped-row accounting and the service state afterwards.
TEST(NetServerTest, EveryOpOnBothProtocolsPinsReplyStateAndSkippedRows) {
  ServingFixture f = ServingFixture::Start(12);
  LinkageService* service = f.service.get();
  const std::vector<Record>& r = f.records;
  auto matched = [service](const Record& query) {
    std::vector<IdPair> pairs;
    EXPECT_TRUE(service->Match(query, &pairs).ok());
    return pairs;
  };
  auto live = [](RecordId id) {
    return [id](const LinkageService& s) { return s.Contains(id); };
  };
  auto gone = [](RecordId id) {
    return [id](const LinkageService& s) { return !s.Contains(id); };
  };
  auto not_live = [](RecordId id) {
    return Status::NotFound(StrFormat("record %llu is not live",
                                      static_cast<unsigned long long>(id)));
  };
  const std::string bad_json = "{nonsense";
  Record scratch;
  const Status bad_json_status = ParseJsonRecord(bad_json, &scratch);
  size_t consumed = 0;
  const Status bad_record_status =
      WireDecodeRecord("not a record", &scratch, &consumed);
  RecordId scratch_id = 0;
  const Status bad_delete_status = DecodeDeletePayload("abc", &scratch_id);
  // 2^64 + 2049638230412172401 — past UINT64_MAX, so the target is no
  // record id; a wrapping parse would act on record 2049638230412172401.
  const RecordId wrapped_id = 2049638230412172401ull;
  const std::string overflow_target = "/records/20496382304121724017";
  const std::string ok_json = HttpResponse(200, "application/json",
                                           PairsToJson({}), false);

  const std::vector<WireCase> cases = {
      // Binary.
      {"bin ping", Binary(MsgType::kPing, ""),
       Exactly(FrameBytes(MsgType::kPong, ""))},
      {"bin match", Binary(MsgType::kMatch, RecordPayload(WithId(r[0], 1000))),
       [&] { return PairsFrame(matched(WithId(r[0], 1000))); }, 0,
       gone(1000)},
      {"bin match_and_insert",
       Binary(MsgType::kMatchAndInsert, RecordPayload(WithId(r[1], 1001))),
       [&] { return PairsFrame(matched(WithId(r[1], 1001))); }, 0,
       live(1001)},
      {"bin insert",
       Binary(MsgType::kInsert, RecordPayload(WithId(r[2], 1002))),
       Exactly(FrameBytes(MsgType::kInserted, "")), 0, live(1002)},
      {"bin delete", Binary(MsgType::kDelete, DeletePayload(r[3].id)),
       Exactly(FrameBytes(MsgType::kDeleted, "")), 0, gone(r[3].id)},
      {"bin delete of a dead id",
       Binary(MsgType::kDelete, DeletePayload(r[3].id)),
       Exactly(ErrorFrame(not_live(r[3].id))), 0, gone(r[3].id)},
      {"bin delete with a short payload", Binary(MsgType::kDelete, "abc"),
       Exactly(ErrorFrame(bad_delete_status))},
      {"bin update",
       Binary(MsgType::kUpdate, RecordPayload(WithId(r[5], r[4].id))),
       Exactly(FrameBytes(MsgType::kUpdated, "")), 0,
       [&](const LinkageService& s) {
         // r[4] now carries r[5]'s fields, so r[5]'s fields find it.
         const std::vector<IdPair> pairs = matched(WithId(r[5], 1003));
         return s.Contains(r[4].id) &&
                std::count(pairs.begin(), pairs.end(),
                           IdPair{r[4].id, 1003}) == 1;
       }},
      {"bin update of an unknown id",
       Binary(MsgType::kUpdate, RecordPayload(WithId(r[5], 5000))),
       Exactly(ErrorFrame(not_live(5000))), 0, gone(5000)},
      {"bin malformed record", Binary(MsgType::kMatch, "not a record"),
       Exactly(ErrorFrame(bad_record_status)), 1},
      {"bin trailing bytes after a record",
       Binary(MsgType::kInsert, RecordPayload(WithId(r[6], 1004)) + "x"),
       Exactly(ErrorFrame(
           Status::InvalidArgument("trailing bytes after record"))),
       1, gone(1004)},
      {"bin unknown type", Binary(static_cast<MsgType>(42), ""),
       Exactly(ErrorFrame(Status::InvalidArgument("unknown message type 42")))},
      {"bin fetch journal without a journal",
       Binary(MsgType::kFetchJournal, ""),
       Exactly(ErrorFrame(Status::FailedPrecondition("no journal attached")))},
      {"bin stats", Binary(MsgType::kStats, ""), nullptr, 0, nullptr,
       FrameWith(MsgType::kStatsJson, "net_requests_total")},
      {"bin fetch snapshot", Binary(MsgType::kFetchSnapshot, ""), nullptr, 0,
       nullptr, FrameWith(MsgType::kSnapshotData, "")},
      // HTTP.
      {"GET /healthz", Http("GET", "/healthz"),
       Exactly(HttpResponse(200, "text/plain", "ok\n", false))},
      {"GET /readyz", Http("GET", "/readyz"),
       Exactly(HttpResponse(200, "text/plain", "ok\n", false))},
      {"GET /metrics", Http("GET", "/metrics"), nullptr, 0, nullptr,
       HttpWith("HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4",
                "net_requests_total")},
      {"GET /stats", Http("GET", "/stats"), nullptr, 0, nullptr,
       HttpWith("HTTP/1.1 200 OK\r\nContent-Type: application/json",
                "net_requests_total")},
      {"GET /tracez without a sink", Http("GET", "/tracez"),
       Exactly(HttpError(
           Status::NotFound("tracing disabled (no trace sink)"), false))},
      {"POST /match", Http("POST", "/match", JsonRecord(WithId(r[7], 2000))),
       [&] {
         return HttpResponse(200, "application/json",
                             PairsToJson(matched(WithId(r[7], 2000))), false);
       },
       0, gone(2000)},
      {"POST /match_and_insert",
       Http("POST", "/match_and_insert", JsonRecord(WithId(r[8], 2001))),
       [&] {
         return HttpResponse(200, "application/json",
                             PairsToJson(matched(WithId(r[8], 2001))), false);
       },
       0, live(2001)},
      {"POST /insert", Http("POST", "/insert", JsonRecord(WithId(r[9], 2002))),
       Exactly(ok_json), 0, live(2002)},
      {"POST /insert of a 20-digit id",
       Http("POST", "/insert", JsonRecord(WithId(r[9], wrapped_id))),
       Exactly(ok_json), 0, live(wrapped_id)},
      {"DELETE /records/{id}",
       Http("DELETE", "/records/" + std::to_string(r[10].id)),
       Exactly(ok_json), 0, gone(r[10].id)},
      {"DELETE /records/{dead id}",
       Http("DELETE", "/records/" + std::to_string(r[10].id)),
       Exactly(HttpError(not_live(r[10].id), false)), 0, gone(r[10].id)},
      {"PUT /records/{id} without a body id",
       Http("PUT", "/records/" + std::to_string(r[11].id),
            JsonRecord(r[0], /*with_id=*/false)),
       Exactly(ok_json), 0, live(r[11].id)},
      {"PUT /records/{id} with the same body id",
       Http("PUT", "/records/" + std::to_string(r[11].id),
            JsonRecord(WithId(r[1], r[11].id))),
       Exactly(ok_json), 0, live(r[11].id)},
      {"PUT /records/{id} with another body id",
       Http("PUT", "/records/" + std::to_string(r[11].id),
            JsonRecord(WithId(r[2], 77))),
       Exactly(HttpError(
           Status::InvalidArgument(StrFormat(
               "body id 77 does not match target id %llu",
               static_cast<unsigned long long>(r[11].id))),
           false)),
       0,
       [&](const LinkageService& s) {
         return s.Contains(r[11].id) && !s.Contains(77);
       }},
      {"PUT /records/{id} with a malformed body",
       Http("PUT", "/records/" + std::to_string(r[11].id), bad_json),
       Exactly(HttpError(bad_json_status, false)), 1, live(r[11].id)},
      {"PUT /records/{unknown id}",
       Http("PUT", "/records/5001", JsonRecord(r[0], false)),
       Exactly(HttpError(not_live(5001), false)), 0, gone(5001)},
      {"DELETE /records/{not a number}", Http("DELETE", "/records/abc"),
       Exactly(HttpError(Status::NotFound("no such path: /records/abc"),
                         false))},
      {"DELETE /records/{id past UINT64_MAX}", Http("DELETE", overflow_target),
       Exactly(HttpError(Status::NotFound("no such path: " + overflow_target),
                         false)),
       0, live(wrapped_id)},
      {"GET unknown path", Http("GET", "/nope"),
       Exactly(HttpError(Status::NotFound("no such path: /nope"), false))},
      {"POST unknown path", Http("POST", "/nope", JsonRecord(r[0])),
       Exactly(HttpError(Status::NotFound("no such path: /nope"), false))},
      {"unsupported method", Http("PATCH", "/match", JsonRecord(r[0])),
       Exactly(HttpError(Status::InvalidArgument("unsupported method: PATCH"),
                         false))},
      {"POST /match with a malformed body", Http("POST", "/match", bad_json),
       Exactly(HttpError(bad_json_status, false)), 1},
  };

  for (const WireCase& c : cases) {
    SCOPED_TRACE(c.name);
    const uint64_t skipped_before = service->metrics().skipped_rows;
    const std::string expected = c.reply ? c.reply() : "";
    const std::string got = c.send(f.server->port());
    if (c.accepts) {
      EXPECT_TRUE(c.accepts(got)) << got;
    } else {
      EXPECT_EQ(got, expected);
    }
    EXPECT_EQ(service->metrics().skipped_rows, skipped_before + c.skipped);
    if (c.state) {
      EXPECT_TRUE(c.state(*service));
    }
  }
}

/// Sends `wire` on a fresh connection while the fixture's single worker
/// is pinned inside another connection's match, so the whole pipelined
/// run is admitted before any of it executes, and reads `n` replies.
std::vector<std::string> SendPipelinedRun(const ServingFixture& f,
                                          const std::string& wire, size_t n,
                                          bool http) {
  Failpoints::Activate("index.collect", FailpointAction::kDelay, 400);
  std::thread pinner([&] {
    Result<std::unique_ptr<NetClient>> client =
        NetClient::Connect("127.0.0.1", f.server->port());
    ASSERT_TRUE(client.ok());
    std::vector<IdPair> pairs;
    EXPECT_TRUE(
        client.value()->Match(WithId(f.records[0], 3999), &pairs).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const int fd = RawConnect(f.server->port());
  EXPECT_GE(fd, 0);
  EXPECT_TRUE(RawSendAll(fd, wire));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Failpoints::DeactivateAll();
  pinner.join();
  std::vector<std::string> replies = ReadReplies(fd, n, http);
  ::close(fd);
  return replies;
}

// A pipelined run of matches shares the service pool, and every reply is
// byte-identical to a sequential Match, whether the ids are distinct or
// repeated, and with an undecodable record (answered with an error and
// counted as a skipped row) in the run.
void ExpectPipelinedMatchesReplyAsSequentialMatch(bool http) {
  NetServerOptions options;
  options.num_workers = 1;
  ServingFixture f = ServingFixture::Start(12, options);

  struct Run {
    const char* name;
    size_t repeat = SIZE_MAX;  // query index that reuses query 1's id
    size_t broken = SIZE_MAX;  // query index sent undecodable
  };
  const Run runs[] = {{"distinct ids", SIZE_MAX, SIZE_MAX},
                      {"a repeated id", 3, SIZE_MAX},
                      {"an undecodable record", SIZE_MAX, 2}};
  constexpr size_t kRun = 6;
  for (const Run& run : runs) {
    SCOPED_TRACE(run.name);
    std::string wire =
        http ? "" : std::string(kBinaryPreamble, sizeof(kBinaryPreamble));
    std::vector<std::string> expected;
    for (size_t k = 0; k < kRun; ++k) {
      const Record query =
          WithId(f.records[k], 3000 + (k == run.repeat ? 1 : k));
      if (k == run.broken) {
        Record scratch;
        size_t consumed = 0;
        if (http) {
          wire += HttpRequestText("POST", "/match", "{nonsense", true);
          expected.push_back(
              HttpError(ParseJsonRecord("{nonsense", &scratch), true));
        } else {
          EncodeFrame(MsgType::kMatch, "not a record", &wire);
          expected.push_back(ErrorFrame(
              WireDecodeRecord("not a record", &scratch, &consumed)));
        }
        continue;
      }
      std::vector<IdPair> pairs;
      ASSERT_TRUE(f.service->Match(query, &pairs).ok());
      if (http) {
        wire += HttpRequestText("POST", "/match", JsonRecord(query), true);
        expected.push_back(HttpResponse(200, "application/json",
                                        PairsToJson(pairs), true));
      } else {
        EncodeFrame(MsgType::kMatch, RecordPayload(query), &wire);
        expected.push_back(PairsFrame(pairs));
      }
    }

    const uint64_t skipped_before = f.service->metrics().skipped_rows;
    const std::vector<std::string> replies =
        SendPipelinedRun(f, wire, kRun, http);
    ASSERT_EQ(replies.size(), kRun);
    for (size_t k = 0; k < kRun; ++k) EXPECT_EQ(replies[k], expected[k]) << k;
    EXPECT_EQ(f.service->metrics().skipped_rows - skipped_before,
              run.broken == SIZE_MAX ? 0u : 1u);
  }
}

TEST(NetServerTest, PipelinedBinaryMatchesReplyAsSequentialMatch) {
  ExpectPipelinedMatchesReplyAsSequentialMatch(/*http=*/false);
}

TEST(NetServerTest, PipelinedHttpMatchesReplyAsSequentialMatch) {
  ExpectPipelinedMatchesReplyAsSequentialMatch(/*http=*/true);
}

// Each request of a pipelined run goes through the ordinary request path
// on its own, so each captured trace carries its own stage spans.
TEST(NetServerTest, PipelinedMatchesRecordTheirOwnStageSpans) {
  telemetry::TraceSinkOptions sink_options;
  sink_options.sample_every = 1;
  sink_options.slow_threshold_us = 0;
  telemetry::TraceSink sink(sink_options);
  NetServerOptions options;
  options.num_workers = 1;
  options.trace_sink = &sink;
  ServingFixture f = ServingFixture::Start(12, options);

  constexpr size_t kRun = 8;
  std::string wire(kBinaryPreamble, sizeof(kBinaryPreamble));
  for (size_t k = 0; k < kRun; ++k) {
    EncodeFrame(MsgType::kMatch, RecordPayload(WithId(f.records[k], 3000 + k)),
                &wire);
  }
  ASSERT_EQ(SendPipelinedRun(f, wire, kRun, /*http=*/false).size(), kRun);

  // A trace is captured before its reply is buffered, so the run's
  // traces and the pinning match's are all in the sink by now.
  const std::vector<telemetry::CapturedTrace> traces = sink.Snapshot();
  ASSERT_EQ(traces.size(), kRun + 1);
  for (const telemetry::CapturedTrace& trace : traces) {
    SCOPED_TRACE(trace.trace_id);
    std::map<std::string, size_t> spans;
    for (const telemetry::Span& span : trace.spans) ++spans[span.name];
    for (const char* stage : {"queue", "encode", "candidates", "compare"}) {
      EXPECT_GE(spans[stage], 1u) << stage;
    }
    EXPECT_EQ(spans.count("match_batch"), 0u);
  }
}

}  // namespace
}  // namespace net
}  // namespace cbvlink
