// On-the-fly serve ops against a live in-process daemon: the `range` op
// (arbitrary row windows over the chunked framing) and the `stream` op
// (replayable CDC event playback). Covers wire-level parity with the
// local cursor/stream paths, replay determinism across connections,
// strict request validation, the new counters (rows_streamed,
// stream_events, streams_active) and failure injection — mid-stream
// disconnect and cross-connection cancel must fail only that job.
// Latency: small replies must not stall on Nagle + delayed ACK, paced
// streams flush each chunk as it is produced, and backpressure still
// lets a non-draining client see the streaming header.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cursor.h"
#include "core/output/formatter.h"
#include "core/session.h"
#include "core/stream.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve_test_util.h"
#include "workloads/tpch.h"

namespace {

using serve::ServeClient;
using serve::ServeOptions;
using serve_test::MustConnect;
using serve_test::StartServer;
using serve_test::WaitFor;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The local render of a range window: what the wire payload and the
// digest trailer must match byte for byte.
struct LocalWindow {
  std::string payload;
  std::string digest_hex;
};

LocalWindow RenderLocalWindow(const pdgf::SchemaDef& schema,
                              const pdgf::GenerationSession& session,
                              int table, uint64_t first, uint64_t last) {
  pdgf::CsvFormatter formatter;
  pdgf::RowRangeCursor cursor(&session, table, first, last);
  pdgf::TableDigest digest;
  std::vector<size_t> row_offsets;
  std::string buffer;
  LocalWindow window;
  while (cursor.Next()) {
    buffer.clear();
    formatter.AppendBatch(schema.tables[static_cast<size_t>(table)],
                          cursor.batch(), &buffer, &row_offsets);
    pdgf::FoldBatchIntoDigest(cursor.batch(), buffer, row_offsets, &digest);
    window.payload += buffer;
  }
  window.digest_hex = digest.Hex();
  return window;
}

double MetricsNumber(ServeClient& client, const std::string& key) {
  auto response = client.Request(R"({"op":"metrics"})");
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return -1;
  auto value = serve::ExtractJsonNumber(*response, key);
  EXPECT_TRUE(value.ok()) << key << " missing in: " << *response;
  return value.ok() ? *value : -1;
}

TEST(ServeOnTheFlyTest, RangeOpMatchesLocalCursorBytes) {
  auto server = StartServer({});
  ASSERT_NE(server, nullptr);
  ServeClient client = MustConnect(*server);
  auto job = client.RunJob(
      R"({"op":"range","model":"tpch","scale_factor":0.001,)"
      R"("table":"orders","first_row":100,"row_count":50,"digests":true})");
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE(job->ok) << job->error_code << ": " << job->error_message;
  EXPECT_EQ(job->rows, 50u);

  // The shipped window must be byte-identical to a local cursor pull
  // over the same rows — same model, same SF, same [first, last).
  pdgf::SchemaDef schema = workloads::BuildTpchSchema();
  auto session = pdgf::GenerationSession::Create(&schema, {{"SF", "0.001"}});
  ASSERT_TRUE(session.ok());
  const int table = schema.FindTableIndex("orders");
  ASSERT_GE(table, 0);
  pdgf::CsvFormatter formatter;
  pdgf::RowRangeCursor cursor(session->get(), table, 100, 150);
  std::string expected;
  while (cursor.Next()) {
    formatter.AppendBatch(schema.tables[static_cast<size_t>(table)],
                          cursor.batch(), &expected);
  }
  EXPECT_EQ(job->table_payload.at("orders"), expected);
  ASSERT_EQ(job->digests.size(), 1u);
  EXPECT_EQ(job->digests[0].rows, 50u);
}

TEST(ServeOnTheFlyTest, RangeOpClampsToTableBounds) {
  auto server = StartServer({});
  ASSERT_NE(server, nullptr);
  ServeClient client = MustConnect(*server);
  // region has 5 rows at any SF; a window reaching past the end clamps.
  auto tail = client.RunJob(
      R"({"op":"range","model":"tpch","scale_factor":0.001,)"
      R"("table":"region","first_row":3,"row_count":1000})");
  ASSERT_TRUE(tail.ok());
  ASSERT_TRUE(tail->ok) << tail->error_message;
  EXPECT_EQ(tail->rows, 2u);
  // A window entirely past the end is empty but well-formed.
  auto past = client.RunJob(
      R"({"op":"range","model":"tpch","scale_factor":0.001,)"
      R"("table":"region","first_row":100,"row_count":10})");
  ASSERT_TRUE(past.ok());
  ASSERT_TRUE(past->ok) << past->error_message;
  EXPECT_EQ(past->rows, 0u);
}

TEST(ServeOnTheFlyTest, StreamOpReplaysIdenticallyAcrossConnections) {
  auto server = StartServer({});
  ASSERT_NE(server, nullptr);
  const std::string request =
      R"({"op":"stream","model":"tpch","scale_factor":0.001,)"
      R"("table":"customer","snapshot":true,"digests":true})";
  ServeClient first = MustConnect(*server);
  auto a = first.RunJob(request);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(a->ok) << a->error_message;
  ServeClient second = MustConnect(*server);
  auto b = second.RunJob(request);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->ok);
  // Replayable by construction: same events, same bytes, same digest.
  EXPECT_GT(a->rows, 0u);
  EXPECT_EQ(a->rows, b->rows);
  EXPECT_EQ(a->table_payload.at("customer"), b->table_payload.at("customer"));
  ASSERT_EQ(a->digests.size(), 1u);
  ASSERT_EQ(b->digests.size(), 1u);
  EXPECT_EQ(a->digests[0].hex, b->digests[0].hex);
}

TEST(ServeOnTheFlyTest, StreamOpMatchesLocalGeneratorEvents) {
  auto server = StartServer({});
  ASSERT_NE(server, nullptr);
  ServeClient client = MustConnect(*server);
  auto job = client.RunJob(
      R"({"op":"stream","model":"tpch","scale_factor":0.001,)"
      R"("table":"nation","snapshot":true,"events":10})");
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE(job->ok) << job->error_message;
  EXPECT_EQ(job->rows, 10u);

  pdgf::SchemaDef schema = workloads::BuildTpchSchema();
  auto session = pdgf::GenerationSession::Create(&schema, {{"SF", "0.001"}});
  ASSERT_TRUE(session.ok());
  const int table = schema.FindTableIndex("nation");
  ASSERT_GE(table, 0);
  pdgf::CsvFormatter formatter;
  pdgf::UpdateStreamOptions options;
  options.snapshot = true;
  pdgf::UpdateStreamGenerator generator(session->get(), table, &formatter,
                                        options);
  std::string expected;
  EXPECT_EQ(generator.NextEvents(&expected, 10), 10u);
  EXPECT_EQ(job->table_payload.at("nation"), expected);
}

TEST(ServeOnTheFlyTest, InvalidRequestsAreRejectedInBand) {
  auto server = StartServer({});
  ASSERT_NE(server, nullptr);
  ServeClient client = MustConnect(*server);
  // Missing table.
  auto no_table = client.Request(
      R"({"op":"range","model":"tpch","row_count":5})");
  ASSERT_TRUE(no_table.ok());
  EXPECT_NE(no_table->find("error"), std::string::npos) << *no_table;
  // Missing row_count.
  auto no_count = client.Request(
      R"({"op":"range","model":"tpch","table":"orders"})");
  ASSERT_TRUE(no_count.ok());
  EXPECT_NE(no_count->find("row_count"), std::string::npos) << *no_count;
  // Unknown table fails in-band after admission.
  auto bad_table = client.RunJob(
      R"({"op":"range","model":"tpch","table":"nosuch","row_count":5})");
  ASSERT_TRUE(bad_table.ok());
  EXPECT_FALSE(bad_table->ok);
  EXPECT_EQ(bad_table->error_code, "NotFound") << bad_table->error_message;
  // The connection survived all three.
  auto pong = client.Request(R"({"op":"ping"})");
  ASSERT_TRUE(pong.ok());
  EXPECT_NE(pong->find("\"ok\""), std::string::npos);
}

TEST(ServeOnTheFlyTest, CountersTrackRowsEventsAndActiveStreams) {
  auto server = StartServer({});
  ASSERT_NE(server, nullptr);
  ServeClient client = MustConnect(*server);
  EXPECT_EQ(MetricsNumber(client, "rows_streamed"), 0);
  EXPECT_EQ(MetricsNumber(client, "stream_events"), 0);
  EXPECT_EQ(MetricsNumber(client, "streams_active"), 0);

  ServeClient runner = MustConnect(*server);
  auto range = runner.RunJob(
      R"({"op":"range","model":"tpch","scale_factor":0.001,)"
      R"("table":"supplier","first_row":0,"row_count":7})");
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(range->ok);
  EXPECT_EQ(MetricsNumber(client, "rows_streamed"), 7);

  auto stream = runner.RunJob(
      R"({"op":"stream","model":"tpch","scale_factor":0.001,)"
      R"("table":"region","snapshot":true})");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream->ok);
  EXPECT_EQ(MetricsNumber(client, "stream_events"), 5);  // region: 5 rows
  // The gauge closed back down after playback.
  EXPECT_EQ(MetricsNumber(client, "streams_active"), 0);
}

TEST(ServeOnTheFlyTest, RateLimitedStreamCanBeCancelled) {
  auto server = StartServer({});
  ASSERT_NE(server, nullptr);
  ServeClient victim = MustConnect(*server);
  // 1 event/s over thousands of events: playback would take hours, so
  // the only way this test finishes fast is the cancel path working.
  ASSERT_TRUE(victim
                  .SendLine(R"({"op":"stream","model":"tpch",)"
                            R"("scale_factor":0.001,"table":"orders",)"
                            R"("snapshot":true,"rate":1})")
                  .ok());
  ServeClient controller = MustConnect(*server);
  ASSERT_TRUE(WaitFor([&] {
    return MetricsNumber(controller, "streams_active") >= 1;
  })) << "stream never started";
  ASSERT_TRUE(WaitFor([&] {
    auto response = controller.Request(R"({"op":"cancel","job":1})");
    return response.ok() && response->find("\"ok\"") != std::string::npos;
  })) << "cancel never found job 1 running";

  auto job = victim.ConsumeJobStream();
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_FALSE(job->ok);
  EXPECT_EQ(job->error_code, "Cancelled") << job->error_message;

  ASSERT_TRUE(WaitFor([&] {
    return MetricsNumber(controller, "jobs_cancelled") >= 1 &&
           MetricsNumber(controller, "streams_active") == 0 &&
           MetricsNumber(controller, "queue_depth") == 0;
  }));
}

TEST(ServeOnTheFlyTest, DisconnectMidRangeFailsOnlyThatJob) {
  ServeOptions options;
  options.send_buffer_bytes = 16 * 1024;  // backpressure after a few KB
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  {
    ServeClient client = MustConnect(*server, /*recv_buffer_bytes=*/8192);
    // A multi-MB window the client never drains.
    ASSERT_TRUE(client
                    .SendLine(R"({"op":"range","model":"tpch",)"
                              R"("scale_factor":0.01,"table":"lineitem",)"
                              R"("first_row":0,"row_count":60000})")
                    .ok());
    auto header = client.ReadLine();
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    EXPECT_NE(header->find("streaming"), std::string::npos) << *header;
    client.Abort();
  }
  ServeClient probe = MustConnect(*server);
  ASSERT_TRUE(WaitFor([&] {
    return MetricsNumber(probe, "jobs_failed") >= 1 &&
           MetricsNumber(probe, "queue_depth") == 0;
  })) << "disconnected range job never reached a terminal state";
  // The daemon still serves: a fresh range round-trips.
  auto follow_up = probe.RunJob(
      R"({"op":"range","model":"tpch","scale_factor":0.001,)"
      R"("table":"region","first_row":0,"row_count":5})");
  ASSERT_TRUE(follow_up.ok());
  ASSERT_TRUE(follow_up->ok) << follow_up->error_message;
  EXPECT_EQ(follow_up->rows, 5u);
}

TEST(ServeOnTheFlyTest, RangeWindowInUpdateModeShipsOnlySelectedRows) {
  // update > 0 flows through the range op to the cursor's update filter;
  // tpch tables are static, so every update window is empty — the
  // contract is "no events", not an error.
  auto server = StartServer({});
  ASSERT_NE(server, nullptr);
  ServeClient client = MustConnect(*server);
  auto job = client.RunJob(
      R"({"op":"range","model":"tpch","scale_factor":0.001,)"
      R"("table":"orders","first_row":0,"row_count":100,"update":0})");
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE(job->ok);
  EXPECT_EQ(job->rows, 100u);
}

TEST(ServeOnTheFlyTest, SequentialSmallRangesDoNotStall) {
  // Each range reply is several writes (header, chunk frame, digest and
  // ok trailer). Without TCP_NODELAY the writes after the first wait for
  // the client's delayed ACK, ~40 ms per reply.
  auto server = StartServer({});
  ASSERT_NE(server, nullptr);
  ServeClient client = MustConnect(*server);
  pdgf::SchemaDef schema = workloads::BuildTpchSchema();
  auto session = pdgf::GenerationSession::Create(&schema, {{"SF", "0.01"}});
  ASSERT_TRUE(session.ok());
  const int table = schema.FindTableIndex("orders");
  ASSERT_GE(table, 0);

  // Warm the daemon's session cache so the timed loop measures replies.
  auto warm = client.RunJob(
      R"({"op":"range","model":"tpch","scale_factor":0.01,)"
      R"("table":"orders","first_row":0,"row_count":1})");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(warm->ok) << warm->error_message;

  constexpr int kRequests = 100;
  constexpr uint64_t kRows = 50;
  double wire_seconds = 0;
  for (int i = 0; i < kRequests; ++i) {
    const uint64_t first = static_cast<uint64_t>(i) * 97;
    const std::string request =
        R"({"op":"range","model":"tpch","scale_factor":0.01,)"
        R"("table":"orders","first_row":)" +
        std::to_string(first) + R"(,"row_count":50,"digests":true})";
    const Clock::time_point start = Clock::now();
    auto job = client.RunJob(request);
    wire_seconds += SecondsSince(start);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    ASSERT_TRUE(job->ok) << job->error_code << ": " << job->error_message;
    ASSERT_EQ(job->rows, kRows);
    const LocalWindow expected =
        RenderLocalWindow(schema, **session, table, first, first + kRows);
    ASSERT_EQ(job->table_payload.at("orders"), expected.payload)
        << "request " << i;
    ASSERT_EQ(job->digests.size(), 1u);
    EXPECT_EQ(job->digests[0].rows, kRows);
    EXPECT_EQ(job->digests[0].hex, expected.digest_hex) << "request " << i;
  }
  // Measured for the 100 round trips on a 4-core x86 VM: with Nagle on,
  // 4.39-4.40 s (~44 ms per reply). With TCP_NODELAY: 0.009-0.02 s in
  // the RelWithDebInfo build, 0.14-0.21 s under ASan/UBSan and
  // 0.21-0.25 s under TSan. The bound sits well clear of both sides.
  EXPECT_LT(wire_seconds, 1.5) << "small range replies are stalling";
}

TEST(ServeOnTheFlyTest, ClientSocketDisablesNagle) {
  auto server = StartServer({});
  ASSERT_NE(server, nullptr);
  ServeClient client = MustConnect(*server);
  int nodelay = 0;
  socklen_t length = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(client.fd(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         &length),
            0);
  EXPECT_EQ(nodelay, 1);
}

TEST(ServeOnTheFlyTest, PacedStreamFlushesFirstChunkBeforePacingEnds) {
  // 20 events at 10 events/s: one chunk goes out at once, then the pacer
  // holds the trailer until ~2 s. The chunk must reach the client as it
  // is produced, not when the job finishes.
  auto server = StartServer({});
  ASSERT_NE(server, nullptr);
  ServeClient client = MustConnect(*server);
  const Clock::time_point start = Clock::now();
  ASSERT_TRUE(client
                  .SendLine(R"({"op":"stream","model":"tpch",)"
                            R"("scale_factor":0.001,"table":"orders",)"
                            R"("snapshot":true,"rate":10,"events":20})")
                  .ok());
  auto header = client.ReadLine();
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  ASSERT_NE(header->find("streaming"), std::string::npos) << *header;
  auto frame = client.ReadLine();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto bytes = serve::ExtractJsonNumber(*frame, "bytes");
  ASSERT_TRUE(bytes.ok()) << *frame;
  auto payload = client.ReadBytes(static_cast<size_t>(*bytes));
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  const double first_chunk_seconds = SecondsSince(start);
  EXPECT_EQ(std::count(payload->begin(), payload->end(), '\n'), 20);

  auto trailer = client.ReadLine();
  ASSERT_TRUE(trailer.ok()) << trailer.status().ToString();
  EXPECT_NE(trailer->find("\"status\":\"ok\""), std::string::npos)
      << *trailer;
  const double total_seconds = SecondsSince(start);
  EXPECT_GE(total_seconds, 1.9) << "the pacer no longer holds the rate";
  EXPECT_LT(first_chunk_seconds, 1.0)
      << "the first chunk waited for the pacing to finish";
}

TEST(ServeOnTheFlyTest, NonDrainingClientSeesHeaderThenGetsEveryByte) {
  ServeOptions options;
  options.send_buffer_bytes = 16 * 1024;  // backpressure after a few KB
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  ServeClient client = MustConnect(*server, /*recv_buffer_bytes=*/8192);
  constexpr uint64_t kRows = 5000;  // ~600 KB of orders: far above buffers
  ASSERT_TRUE(client
                  .SendLine(R"({"op":"range","model":"tpch",)"
                            R"("scale_factor":0.01,"table":"orders",)"
                            R"("first_row":0,"row_count":5000})")
                  .ok());
  // The header is flushed before the first payload write can block.
  auto header = client.ReadLine();
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  ASSERT_NE(header->find("streaming"), std::string::npos) << *header;

  // Not draining: the job stays pinned in its streaming phase.
  ServeClient probe = MustConnect(*server);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(MetricsNumber(probe, "queue_depth"), 1);
  EXPECT_EQ(MetricsNumber(probe, "jobs_completed"), 0);

  // Draining now delivers the whole window, unchanged by the stall.
  std::string received;
  while (true) {
    auto line = client.ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    if (line->find("\"table\"") != std::string::npos) {
      auto bytes = serve::ExtractJsonNumber(*line, "bytes");
      ASSERT_TRUE(bytes.ok()) << *line;
      auto payload = client.ReadBytes(static_cast<size_t>(*bytes));
      ASSERT_TRUE(payload.ok()) << payload.status().ToString();
      received += *payload;
      continue;
    }
    ASSERT_NE(line->find("\"status\":\"ok\""), std::string::npos) << *line;
    break;
  }
  pdgf::SchemaDef schema = workloads::BuildTpchSchema();
  auto session = pdgf::GenerationSession::Create(&schema, {{"SF", "0.01"}});
  ASSERT_TRUE(session.ok());
  const int table = schema.FindTableIndex("orders");
  ASSERT_GE(table, 0);
  EXPECT_EQ(received,
            RenderLocalWindow(schema, **session, table, 0, kRows).payload);
  ASSERT_TRUE(WaitFor([&] {
    return MetricsNumber(probe, "jobs_completed") == 1 &&
           MetricsNumber(probe, "queue_depth") == 0;
  }));
}

}  // namespace
