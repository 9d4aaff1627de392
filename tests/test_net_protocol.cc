// Wire-protocol tests for the network serving tier (src/net/protocol.h):
// frame encode/decode under fragmentation and corruption, the payload
// codecs, the HTTP/1.1 request parser and response renderer, the JSON
// record mapping, and host:port parsing.

#include "src/net/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/net/client.h"
#include "src/net/status_map.h"

namespace cbvlink {
namespace net {
namespace {

TEST(NetProtocolTest, FrameRoundTrip) {
  std::string wire;
  EncodeFrame(MsgType::kMatch, "hello", &wire);
  EncodeFrame(MsgType::kPing, "", &wire);
  EncodeFrame(MsgType::kStatsJson, std::string(1000, 'x'), &wire);

  FrameDecoder decoder;
  decoder.Feed(wire);
  Frame frame;
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kMatch);
  EXPECT_EQ(frame.payload, "hello");
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kPing);
  EXPECT_TRUE(frame.payload.empty());
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kStatsJson);
  EXPECT_EQ(frame.payload.size(), 1000u);
  EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kNeedMore);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(NetProtocolTest, FrameDecoderHandlesByteAtATimeDelivery) {
  std::string wire;
  EncodeFrame(MsgType::kInsert, "payload bytes", &wire);

  FrameDecoder decoder;
  Frame frame;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.Feed(std::string_view(wire.data() + i, 1));
    ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kNeedMore)
        << "after byte " << i;
  }
  decoder.Feed(std::string_view(wire.data() + wire.size() - 1, 1));
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kInsert);
  EXPECT_EQ(frame.payload, "payload bytes");
}

TEST(NetProtocolTest, FrameDecoderCorruptionIsTerminal) {
  // A flipped payload byte fails the CRC.
  {
    std::string wire;
    EncodeFrame(MsgType::kMatch, "hello", &wire);
    wire[6] = static_cast<char>(wire[6] ^ 0x01);
    FrameDecoder decoder;
    decoder.Feed(wire);
    Frame frame;
    EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kCorrupt);
    EXPECT_FALSE(decoder.error().ok());
    // Terminal: more bytes do not revive the decoder.
    std::string good;
    EncodeFrame(MsgType::kPing, "", &good);
    decoder.Feed(good);
    EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kCorrupt);
  }
  // An over-cap length is rejected before any allocation.
  {
    std::string wire;
    const uint32_t huge = kMaxFramePayload + 1;
    for (int i = 0; i < 4; ++i) {
      wire.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
    }
    wire.push_back('\x02');
    FrameDecoder decoder;
    decoder.Feed(wire);
    Frame frame;
    EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kCorrupt);
  }
}

TEST(NetProtocolTest, PairsCodecRoundTrip) {
  const std::vector<IdPair> pairs = {{1, 100}, {2, 200}, {UINT64_MAX, 0}};
  std::string payload;
  EncodePairs(pairs, &payload);
  std::vector<IdPair> decoded;
  ASSERT_TRUE(DecodePairs(payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(decoded[i].a_id, pairs[i].a_id);
    EXPECT_EQ(decoded[i].b_id, pairs[i].b_id);
  }

  // Empty round-trips; truncated and padded payloads are rejected.
  payload.clear();
  EncodePairs({}, &payload);
  ASSERT_TRUE(DecodePairs(payload, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
  EXPECT_FALSE(DecodePairs("abc", &decoded).ok());
  payload.push_back('x');
  EXPECT_FALSE(DecodePairs(payload, &decoded).ok());
}

TEST(NetProtocolTest, ErrorPayloadPreservesCodeAndMessage) {
  std::string payload;
  EncodeErrorPayload(Status::ResourceExhausted("queue full"), &payload);
  Status decoded = Status::OK();
  ASSERT_TRUE(DecodeErrorPayload(payload, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.message(), "queue full");

  EXPECT_FALSE(DecodeErrorPayload("short", &decoded).ok());
}

TEST(NetProtocolTest, JournalCodecsRoundTrip) {
  std::string fetch;
  EncodeJournalFetch(7, 12345, &fetch);
  uint64_t epoch = 0;
  uint64_t offset = 0;
  ASSERT_TRUE(DecodeJournalFetch(fetch, &epoch, &offset).ok());
  EXPECT_EQ(epoch, 7u);
  EXPECT_EQ(offset, 12345u);
  EXPECT_FALSE(DecodeJournalFetch("bad", &epoch, &offset).ok());

  std::string data;
  EncodeJournalData(3, 999, "raw frame bytes", &data);
  uint64_t end_offset = 0;
  std::string frames;
  ASSERT_TRUE(DecodeJournalData(data, &epoch, &end_offset, &frames).ok());
  EXPECT_EQ(epoch, 3u);
  EXPECT_EQ(end_offset, 999u);
  EXPECT_EQ(frames, "raw frame bytes");
  EXPECT_FALSE(DecodeJournalData("tooshort", &epoch, &end_offset, &frames).ok());
}

TEST(NetProtocolTest, HttpParserHandlesPipelinedKeepAliveRequests) {
  HttpParser parser;
  parser.Feed(
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
      "POST /match HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody");
  HttpRequest request;
  ASSERT_EQ(parser.Pop(&request), HttpParser::Next::kRequest);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/healthz");
  EXPECT_TRUE(request.keep_alive);
  EXPECT_TRUE(request.body.empty());
  ASSERT_EQ(parser.Pop(&request), HttpParser::Next::kRequest);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/match");
  EXPECT_EQ(request.body, "body");
  EXPECT_EQ(parser.Pop(&request), HttpParser::Next::kNeedMore);
}

TEST(NetProtocolTest, HttpParserIncrementalBodyDelivery) {
  HttpParser parser;
  HttpRequest request;
  parser.Feed("POST /insert HTTP/1.1\r\nContent-Le");
  EXPECT_EQ(parser.Pop(&request), HttpParser::Next::kNeedMore);
  parser.Feed("ngth: 10\r\nConnection: close\r\n\r\n12345");
  EXPECT_EQ(parser.Pop(&request), HttpParser::Next::kNeedMore);
  parser.Feed("67890");
  ASSERT_EQ(parser.Pop(&request), HttpParser::Next::kRequest);
  EXPECT_EQ(request.body, "1234567890");
  EXPECT_FALSE(request.keep_alive);
}

TEST(NetProtocolTest, HttpParserRejectsBadInput) {
  // Malformed request line.
  {
    HttpParser parser;
    parser.Feed("NONSENSE\r\n\r\n");
    HttpRequest request;
    EXPECT_EQ(parser.Pop(&request), HttpParser::Next::kBad);
  }
  // Chunked transfer encoding is unsupported.
  {
    HttpParser parser;
    parser.Feed("POST /match HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    HttpRequest request;
    EXPECT_EQ(parser.Pop(&request), HttpParser::Next::kBad);
  }
  // Non-numeric and oversized Content-Length.
  {
    HttpParser parser;
    parser.Feed("POST /match HTTP/1.1\r\nContent-Length: nan\r\n\r\n");
    HttpRequest request;
    EXPECT_EQ(parser.Pop(&request), HttpParser::Next::kBad);
  }
  {
    HttpParser parser;
    parser.Feed("POST /match HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n");
    HttpRequest request;
    EXPECT_EQ(parser.Pop(&request), HttpParser::Next::kBad);
  }
  // Empty Content-Length value is rejected, not parsed as 0.
  {
    HttpParser parser;
    parser.Feed("POST /match HTTP/1.1\r\nContent-Length:\r\n\r\n");
    HttpRequest request;
    EXPECT_EQ(parser.Pop(&request), HttpParser::Next::kBad);
  }
  {
    HttpParser parser;
    parser.Feed("POST /match HTTP/1.1\r\nContent-Length: \r\n\r\n");
    HttpRequest request;
    EXPECT_EQ(parser.Pop(&request), HttpParser::Next::kBad);
  }
  // A header that never terminates trips the size cap instead of
  // buffering forever.
  {
    HttpParser parser;
    parser.Feed("GET / HTTP/1.1\r\n");
    parser.Feed("X-Junk: " + std::string(20u << 10, 'a'));
    HttpRequest request;
    EXPECT_EQ(parser.Pop(&request), HttpParser::Next::kBad);
  }
  // ...and so does an oversized header whose terminator arrives in the
  // same Feed.
  {
    HttpParser parser;
    parser.Feed("GET / HTTP/1.1\r\nX-Junk: " + std::string(20u << 10, 'a') +
                "\r\n\r\n");
    HttpRequest request;
    EXPECT_EQ(parser.Pop(&request), HttpParser::Next::kBad);
  }
}

TEST(NetProtocolTest, HttpResponseRendering) {
  const std::string ok = HttpResponse(200, "text/plain", "ok\n", true);
  EXPECT_NE(ok.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(ok.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(ok.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(ok.find("Retry-After"), std::string::npos);
  EXPECT_EQ(ok.substr(ok.size() - 3), "ok\n");

  const std::string shed = HttpResponse(429, "application/json", "{}", false);
  EXPECT_NE(shed.find("HTTP/1.1 429 Too Many Requests\r\n"), std::string::npos);
  EXPECT_NE(shed.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(shed.find("Connection: close\r\n"), std::string::npos);
}

TEST(NetProtocolTest, ParseJsonRecordAcceptsTheRequestShape) {
  Record record;
  ASSERT_TRUE(ParseJsonRecord(
                  R"({"id": 42, "fields": ["JOHN", "SMITH"]})", &record)
                  .ok());
  EXPECT_EQ(record.id, 42u);
  ASSERT_EQ(record.fields.size(), 2u);
  EXPECT_EQ(record.fields[0], "JOHN");
  EXPECT_EQ(record.fields[1], "SMITH");

  // Keys in any order; id optional; empty fields; escapes.
  ASSERT_TRUE(ParseJsonRecord(
                  R"({"fields": ["A\"B", "A"], "id": 1})", &record)
                  .ok());
  EXPECT_EQ(record.fields[0], "A\"B");
  EXPECT_EQ(record.fields[1], "A");
  ASSERT_TRUE(ParseJsonRecord(R"({"fields": []})", &record).ok());
  EXPECT_EQ(record.id, 0u);
  EXPECT_TRUE(record.fields.empty());
}

TEST(NetProtocolTest, ParseJsonRecordIsStrict) {
  Record record;
  EXPECT_FALSE(ParseJsonRecord("", &record).ok());
  EXPECT_FALSE(ParseJsonRecord("[]", &record).ok());
  EXPECT_FALSE(ParseJsonRecord(R"({"id": -1})", &record).ok());
  EXPECT_FALSE(ParseJsonRecord(R"({"unknown": 1})", &record).ok());
  EXPECT_FALSE(ParseJsonRecord(R"({"fields": [1, 2]})", &record).ok());
  EXPECT_FALSE(ParseJsonRecord(R"({"fields": ["a"} )", &record).ok());
  EXPECT_FALSE(ParseJsonRecord(R"({"id": 1} trailing)", &record).ok());
}

// One decimal parser serves JSON ids and /records/{id} targets; it must
// refuse every value past UINT64_MAX, including ones whose 10x wraps to
// a number larger than the previous step (9n >= 2^64).
TEST(NetProtocolTest, ParseDecimalU64RejectsEveryOverflow) {
  uint64_t v = 0;
  size_t consumed = 0;
  ASSERT_TRUE(ParseDecimalU64("18446744073709551615/", &v, &consumed).ok());
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_EQ(consumed, 20u);
  ASSERT_TRUE(ParseDecimalU64("007x", &v, &consumed).ok());
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(consumed, 3u);
  EXPECT_FALSE(ParseDecimalU64("18446744073709551616", &v, &consumed).ok());
  EXPECT_FALSE(ParseDecimalU64("20496382304121724017", &v, &consumed).ok());
  EXPECT_FALSE(ParseDecimalU64("", &v, &consumed).ok());
  EXPECT_FALSE(ParseDecimalU64("x1", &v, &consumed).ok());
  Record record;
  EXPECT_FALSE(
      ParseJsonRecord(R"({"id": 20496382304121724017})", &record).ok());
}

TEST(NetProtocolTest, PairsAndStatusJson) {
  EXPECT_EQ(PairsToJson({}), "{\"pairs\":[]}");
  EXPECT_EQ(PairsToJson({{1, 2}, {3, 4}}), "{\"pairs\":[[1,2],[3,4]]}");

  const std::string json = StatusToJson(Status::InvalidArgument("bad \"x\""));
  EXPECT_NE(json.find("\"code\":\"InvalidArgument\""), std::string::npos);
  EXPECT_NE(json.find("bad \\\"x\\\""), std::string::npos);
}

TEST(NetProtocolTest, HttpCodeMapping) {
  EXPECT_EQ(HttpCodeFor(Status::OK()), 200);
  EXPECT_EQ(HttpCodeFor(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(HttpCodeFor(Status::FailedPrecondition("x")), 403);
  EXPECT_EQ(HttpCodeFor(Status::NotFound("x")), 404);
  EXPECT_EQ(HttpCodeFor(Status::ResourceExhausted("x")), 429);
  EXPECT_EQ(HttpCodeFor(Status::Internal("x")), 500);
  EXPECT_EQ(HttpCodeFor(Status::IOError("x")), 500);
}

TEST(NetProtocolTest, ParseHostPort) {
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(ParseHostPort("10.1.2.3:8080", &host, &port).ok());
  EXPECT_EQ(host, "10.1.2.3");
  EXPECT_EQ(port, 8080);
  ASSERT_TRUE(ParseHostPort(":9000", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9000);
  ASSERT_TRUE(ParseHostPort("7000", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7000);
  // Port 0 is accepted (ephemeral bind); Connect rejects it instead.
  ASSERT_TRUE(ParseHostPort("127.0.0.1:0", &host, &port).ok());
  EXPECT_EQ(port, 0);

  EXPECT_FALSE(ParseHostPort("host:", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("host:abc", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("host:70000", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("", &host, &port).ok());
}

TEST(NetProtocolTest, TraceContextPayloadRoundTrip) {
  std::string payload;
  EncodeTraceContextPayload(0x1122334455667788ULL, 42, &payload);
  uint64_t trace_id = 0;
  uint64_t parent = 0;
  ASSERT_TRUE(DecodeTraceContextPayload(payload, &trace_id, &parent).ok());
  EXPECT_EQ(trace_id, 0x1122334455667788ULL);
  EXPECT_EQ(parent, 42u);

  // Zero trace id means "untraced" everywhere: rejected on decode.
  EncodeTraceContextPayload(0, 0, &payload);
  EXPECT_FALSE(DecodeTraceContextPayload(payload, &trace_id, &parent).ok());
  // Truncated payloads are rejected, not misread.
  EncodeTraceContextPayload(7, 8, &payload);
  payload.resize(payload.size() - 1);
  EXPECT_FALSE(DecodeTraceContextPayload(payload, &trace_id, &parent).ok());
  EXPECT_FALSE(DecodeTraceContextPayload("", &trace_id, &parent).ok());
}

TEST(NetProtocolTest, ServerTimingPayloadRoundTrip) {
  std::vector<StageTiming> stages = {
      {TimingStage::kQueue, 12},    {TimingStage::kEncode, 3},
      {TimingStage::kCandidates, 4500}, {TimingStage::kCompare, 90},
      {TimingStage::kInsert, 700},  {TimingStage::kJournal, 55},
      {TimingStage::kTotal, 5360},
  };
  std::string payload;
  EncodeServerTimingPayload(0xfeedULL, stages, &payload);
  uint64_t trace_id = 0;
  std::vector<StageTiming> decoded;
  ASSERT_TRUE(DecodeServerTimingPayload(payload, &trace_id, &decoded).ok());
  EXPECT_EQ(trace_id, 0xfeedULL);
  ASSERT_EQ(decoded.size(), stages.size());
  for (size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(decoded[i].stage, stages[i].stage);
    EXPECT_EQ(decoded[i].dur_us, stages[i].dur_us);
  }

  payload.resize(payload.size() - 2);  // truncated entry list
  EXPECT_FALSE(DecodeServerTimingPayload(payload, &trace_id, &decoded).ok());
}

TEST(NetProtocolTest, ServerTimingHeaderRoundTrip) {
  const std::vector<StageTiming> stages = {
      {TimingStage::kQueue, 123},     {TimingStage::kCandidates, 4500},
      {TimingStage::kInsert, 250},    {TimingStage::kTotal, 4873},
  };
  const std::string value = ServerTimingHeaderValue(stages);
  // Fractional milliseconds per the Server-Timing spec.
  EXPECT_NE(value.find("queue;dur=0.123"), std::string::npos) << value;
  EXPECT_NE(value.find("candidates;dur=4.500"), std::string::npos) << value;
  EXPECT_NE(value.find("insert;dur=0.250"), std::string::npos) << value;

  const std::vector<StageTiming> parsed = ParseServerTimingHeaderValue(value);
  ASSERT_EQ(parsed.size(), stages.size());
  for (size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(parsed[i].stage, stages[i].stage);
    EXPECT_EQ(parsed[i].dur_us, stages[i].dur_us);
  }
  // Unknown tokens are skipped, not errors.
  EXPECT_TRUE(ParseServerTimingHeaderValue("cache;dur=1.0, x").empty());
  EXPECT_TRUE(ParseServerTimingHeaderValue("").empty());
}

TEST(NetProtocolTest, TimingStageNamesAreStableTokens) {
  EXPECT_STREQ(TimingStageName(TimingStage::kQueue), "queue");
  EXPECT_STREQ(TimingStageName(TimingStage::kEncode), "encode");
  EXPECT_STREQ(TimingStageName(TimingStage::kCandidates), "candidates");
  EXPECT_STREQ(TimingStageName(TimingStage::kCompare), "compare");
  EXPECT_STREQ(TimingStageName(TimingStage::kInsert), "insert");
  EXPECT_STREQ(TimingStageName(TimingStage::kJournal), "journal");
  EXPECT_STREQ(TimingStageName(TimingStage::kTotal), "total");
}

TEST(NetProtocolTest, TraceIdHexRoundTrip) {
  EXPECT_EQ(TraceIdHex(0x0123456789abcdefULL), "0123456789abcdef");
  EXPECT_EQ(ParseTraceIdHex("0123456789abcdef"), 0x0123456789abcdefULL);
  EXPECT_EQ(ParseTraceIdHex("ABCDEF"), 0xabcdefULL);  // case-insensitive
  EXPECT_EQ(ParseTraceIdHex(""), 0u);
  EXPECT_EQ(ParseTraceIdHex("xyz"), 0u);
  EXPECT_EQ(ParseTraceIdHex("00112233445566778899"), 0u);  // too long
  for (uint64_t id : {1ULL, 0xdeadbeefULL, ~0ULL}) {
    EXPECT_EQ(ParseTraceIdHex(TraceIdHex(id)), id);
  }
}

TEST(NetProtocolTest, HttpParserExtractsTraceHeaders) {
  HttpParser parser;
  parser.Feed(
      "POST /match HTTP/1.1\r\nHost: t\r\n"
      "X-Trace-Id: 00000000000000ff\r\nX-Trace-Parent: 0a\r\n"
      "Content-Length: 2\r\n\r\n{}");
  HttpRequest request;
  ASSERT_EQ(parser.Pop(&request), HttpParser::Next::kRequest);
  EXPECT_EQ(request.trace_id, 0xffu);
  EXPECT_EQ(request.trace_parent, 0xau);

  // Trace state must reset between pipelined requests.
  parser.Feed("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_EQ(parser.Pop(&request), HttpParser::Next::kRequest);
  EXPECT_EQ(request.trace_id, 0u);
  EXPECT_EQ(request.trace_parent, 0u);

  // Malformed ids degrade to untraced, not to a parse error.
  parser.Feed("GET / HTTP/1.1\r\nHost: t\r\nX-Trace-Id: nope\r\n\r\n");
  ASSERT_EQ(parser.Pop(&request), HttpParser::Next::kRequest);
  EXPECT_EQ(request.trace_id, 0u);
}

TEST(NetProtocolTest, HttpResponseRendersTraceExtras) {
  HttpResponseExtras extras;
  extras.server_timing = "queue;dur=0.010, total;dur=1.500";
  extras.trace_id = "00000000000000ff";
  const std::string response =
      HttpResponse(200, "application/json", "{}", /*keep_alive=*/true,
                   /*retry_after_s=*/0, extras);
  EXPECT_NE(
      response.find("Server-Timing: queue;dur=0.010, total;dur=1.500\r\n"),
      std::string::npos)
      << response;
  EXPECT_NE(response.find("X-Trace-Id: 00000000000000ff\r\n"),
            std::string::npos)
      << response;

  // Empty extras add no headers (byte-identical to the plain overload).
  EXPECT_EQ(HttpResponse(200, "application/json", "{}", true, 0,
                         HttpResponseExtras{}),
            HttpResponse(200, "application/json", "{}", true));
}

}  // namespace
}  // namespace net
}  // namespace cbvlink
