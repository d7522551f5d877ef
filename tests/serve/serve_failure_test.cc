// Failure injection against a live in-process daemon (ISSUE 6): every
// scenario must leave the daemon serving — asserted by running a real
// follow-up job — and must not leak job slots, buffer-pool buffers or
// file descriptors. Failed engine runs don't populate a MetricsReport,
// so pool health is asserted through the follow-up successful job's
// report plus process-level fd accounting.

#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

#include "core/output/sink.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve_test_util.h"

namespace {

using serve::ServeClient;
using serve::ServeOptions;
using serve_test::MustConnect;
using serve_test::StartServer;
using serve_test::WaitFor;

int CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count;
}

double MetricsNumber(ServeClient& client, const std::string& key) {
  auto response = client.Request(R"({"op":"metrics"})");
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return -1;
  auto value = serve::ExtractJsonNumber(*response, key);
  EXPECT_TRUE(value.ok()) << key << " missing in: " << *response;
  return value.ok() ? *value : -1;
}

// The canonical "is the daemon still healthy" probe: a small generate
// job with digests must stream to completion.
void ExpectFollowUpJobSucceeds(const serve::Server& server) {
  ServeClient client = MustConnect(server);
  auto job = client.RunJob(
      R"({"model":"tpch","scale_factor":0.001,"digests":true})");
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE(job->ok) << job->error_code << ": " << job->error_message;
  EXPECT_GT(job->rows, 0u);
  EXPECT_EQ(job->digests.size(), 8u);  // tpch has 8 tables
}

TEST(ServeFailureTest, MalformedRequestsAreReportedAndRecoverable) {
  auto server = StartServer(ServeOptions{});
  ASSERT_NE(server, nullptr);
  ServeClient client = MustConnect(*server);

  const char* kBad[] = {
      "{not json at all",
      R"({"model":"tpch","typo":1})",
      R"({"node_id":-3,"model":"tpch"})",
      R"({"op":"generate"})",
  };
  for (const char* bad : kBad) {
    auto response = client.Request(bad);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    auto fields = serve::ParseFlatJsonObject(*response);
    ASSERT_TRUE(fields.ok()) << *response;
    EXPECT_EQ(fields->at("status"), "error") << *response;
  }
  // The SAME connection keeps serving — the stream stays line-aligned.
  auto pong = client.Request(R"({"op":"ping"})");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_NE(pong->find("\"ok\""), std::string::npos);

  EXPECT_GE(MetricsNumber(client, "requests_malformed"), 4);
  EXPECT_EQ(MetricsNumber(client, "jobs_accepted"), 0);
  ExpectFollowUpJobSucceeds(*server);
}

TEST(ServeFailureTest, TruncatedRequestDropsConnectionNotDaemon) {
  auto server = StartServer(ServeOptions{});
  ASSERT_NE(server, nullptr);
  {
    ServeClient client = MustConnect(*server);
    // Bytes with no terminating newline, then a hard close: the daemon
    // must treat the torn request as malformed, not crash or hang.
    ASSERT_TRUE(pdgf::WriteAllToFd(client.fd(), R"({"model":"tp)").ok());
    client.Abort();
  }
  ServeClient probe = MustConnect(*server);
  ASSERT_TRUE(WaitFor([&] {
    return MetricsNumber(probe, "requests_malformed") >= 1;
  })) << "truncated request was never counted";
  // The torn request is ALSO distinguishable from in-band garbage: the
  // connection died with a partial line buffered.
  ASSERT_TRUE(WaitFor([&] {
    return MetricsNumber(probe, "requests_truncated") >= 1;
  })) << "torn request not counted as truncated";
  EXPECT_EQ(MetricsNumber(probe, "jobs_accepted"), 0);
  ExpectFollowUpJobSucceeds(*server);
}

TEST(ServeFailureTest, IdleTimeoutMidRequestCountsTruncated) {
  // The SO_RCVTIMEO idle drop with a partial request line buffered is a
  // half-sent request; a silent connection timing out with NOTHING
  // buffered is a clean idle close. The requests_truncated counter must
  // separate the two.
  ServeOptions options;
  options.request_timeout_seconds = 1;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  ServeClient probe = MustConnect(*server);

  // Never sends a byte: times out as a clean idle close.
  ServeClient idle = MustConnect(*server);
  // Sends half a request line, then goes silent: times out mid-request.
  ServeClient torn = MustConnect(*server);
  ASSERT_TRUE(pdgf::WriteAllToFd(torn.fd(), R"({"op":"pi)").ok());

  ASSERT_TRUE(WaitFor([&] {
    return MetricsNumber(probe, "requests_truncated") >= 1;
  })) << "idle-dropped partial request was never counted";
  // Both connections have timed out once truncated==1 is visible and
  // active_connections has drained to the probe alone; the clean idle
  // close must not have bumped the counter.
  ASSERT_TRUE(WaitFor([&] {
    return MetricsNumber(probe, "active_connections") <= 1;
  }));
  EXPECT_EQ(MetricsNumber(probe, "requests_truncated"), 1);
  ExpectFollowUpJobSucceeds(*server);
}

TEST(ServeFailureTest, WriteAllToFdSurvivesDefaultSigpipeDisposition) {
  // An embedding server must not depend on the CLI's process-wide
  // signal(SIGPIPE, SIG_IGN): with the disposition at SIG_DFL, a write
  // to a vanished peer must surface as IoError, not kill the process.
  struct sigaction default_action {};
  default_action.sa_handler = SIG_DFL;
  struct sigaction old_action {};
  ASSERT_EQ(sigaction(SIGPIPE, &default_action, &old_action), 0);

  // Pipe with a dead reader: exercises the masked-write fallback.
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ::close(fds[0]);
  pdgf::Status pipe_status = pdgf::WriteAllToFd(fds[1], "doomed");
  EXPECT_FALSE(pipe_status.ok());
  EXPECT_NE(pipe_status.ToString().find("Broken pipe"), std::string::npos)
      << pipe_status.ToString();
  ::close(fds[1]);

  // Socket with a dead peer: exercises the send(MSG_NOSIGNAL) path.
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[0]);
  pdgf::Status socket_status = pdgf::WriteAllToFd(sv[1], "doomed");
  EXPECT_FALSE(socket_status.ok());
  ::close(sv[1]);

  ASSERT_EQ(sigaction(SIGPIPE, &old_action, nullptr), 0);
}

TEST(ServeFailureTest, UnknownModelIsRejectedInBand) {
  auto server = StartServer(ServeOptions{});
  ASSERT_NE(server, nullptr);
  ServeClient client = MustConnect(*server);
  auto job = client.RunJob(R"({"model":"no_such_model"})");
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_FALSE(job->ok);
  EXPECT_EQ(job->error_code, "NotFound") << job->error_message;
  // Rejected before admission: no job slot was consumed.
  EXPECT_EQ(MetricsNumber(client, "jobs_accepted"), 0);
  ExpectFollowUpJobSucceeds(*server);
}

TEST(ServeFailureTest, ClientDisconnectMidStreamFailsOnlyThatJob) {
  ServeOptions options;
  options.send_buffer_bytes = 16 * 1024;  // backpressure after a few KB
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  int fds_before = CountOpenFds();

  {
    ServeClient client = MustConnect(*server, /*recv_buffer_bytes=*/8192);
    ASSERT_TRUE(
        client.SendLine(R"({"model":"tpch","scale_factor":0.01})").ok());
    auto header = client.ReadLine();
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    EXPECT_NE(header->find("streaming"), std::string::npos) << *header;
    // Vanish without draining ~11 MB: the server's next send hits a
    // reset socket and the engine run must abort, releasing its
    // buffers.
    client.Abort();
  }

  ServeClient probe = MustConnect(*server);
  ASSERT_TRUE(WaitFor([&] {
    return MetricsNumber(probe, "jobs_failed") >= 1 &&
           MetricsNumber(probe, "queue_depth") == 0;
  })) << "disconnected job never reached a terminal state";

  ExpectFollowUpJobSucceeds(*server);
  // The follow-up run reused the pool without deadlock or leak: its
  // peak demand stayed within capacity.
  double capacity = MetricsNumber(probe, "capacity");
  double peak = MetricsNumber(probe, "peak_in_flight");
  EXPECT_GT(capacity, 0);
  EXPECT_LE(peak, capacity);

  // Connection teardown returned every fd (generous slack for test
  // machinery churn).
  ASSERT_TRUE(WaitFor([&] { return MetricsNumber(probe, "active_connections") <= 2; }));
  int fds_after = CountOpenFds();
  EXPECT_LE(fds_after, fds_before + 4)
      << "fd count grew from " << fds_before << " to " << fds_after;
}

TEST(ServeFailureTest, CancelAbortsARunningJob) {
  ServeOptions options;
  options.send_buffer_bytes = 16 * 1024;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  ServeClient victim = MustConnect(*server, /*recv_buffer_bytes=*/8192);
  ASSERT_TRUE(
      victim.SendLine(R"({"model":"tpch","scale_factor":0.01})").ok());
  // Not draining yet: backpressure pins the job in its streaming phase,
  // so the cancel below cannot race job completion. A fresh server
  // numbers jobs from 1.
  ServeClient controller = MustConnect(*server);
  ASSERT_TRUE(WaitFor([&] {
    auto response = controller.Request(R"({"op":"cancel","job":1})");
    return response.ok() &&
           response->find("\"ok\"") != std::string::npos;
  })) << "cancel never found job 1 running";

  auto job = victim.ConsumeJobStream();
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_FALSE(job->ok);
  EXPECT_EQ(job->error_code, "Cancelled") << job->error_message;

  ASSERT_TRUE(WaitFor([&] {
    return MetricsNumber(controller, "jobs_cancelled") >= 1 &&
           MetricsNumber(controller, "queue_depth") == 0;
  }));
  ExpectFollowUpJobSucceeds(*server);
}

TEST(ServeFailureTest, SaturatedQueueRejectsImmediatelyThenRecovers) {
  ServeOptions options;
  options.max_jobs = 1;
  options.send_buffer_bytes = 16 * 1024;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  ServeClient holder = MustConnect(*server, /*recv_buffer_bytes=*/8192);
  ASSERT_TRUE(
      holder.SendLine(R"({"model":"tpch","scale_factor":0.01})").ok());

  ServeClient prober = MustConnect(*server);
  ASSERT_TRUE(WaitFor([&] {
    return MetricsNumber(prober, "queue_depth") == 1;
  })) << "holder job never occupied the queue";

  // The one slot is held and the holder is not draining — a second job
  // must bounce NOW, not park.
  auto rejected = prober.RunJob(R"({"model":"tpch","scale_factor":0.001})");
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_FALSE(rejected->ok);
  EXPECT_EQ(rejected->error_code, "ResourceExhausted")
      << rejected->error_message;
  EXPECT_GE(MetricsNumber(prober, "jobs_rejected"), 1);

  // Drain the holder; its slot frees and the same daemon serves again.
  auto held = holder.ConsumeJobStream();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_TRUE(held->ok) << held->error_code << ": " << held->error_message;
  ExpectFollowUpJobSucceeds(*server);
  EXPECT_EQ(MetricsNumber(prober, "queue_depth"), 0);
}

TEST(ServeFailureTest, ConnectionLimitRejectsExtraClients) {
  ServeOptions options;
  options.max_connections = 2;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  ServeClient first = MustConnect(*server);
  ServeClient second = MustConnect(*server);
  // Both slots must be registered before the third connect, and pings
  // prove both are live.
  ASSERT_TRUE(first.Request(R"({"op":"ping"})").ok());
  ASSERT_TRUE(second.Request(R"({"op":"ping"})").ok());

  ServeClient third = MustConnect(*server);
  auto response = third.ReadLine();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->find("ResourceExhausted"), std::string::npos)
      << *response;

  // Freeing a slot restores service for new clients.
  first.Abort();
  ASSERT_TRUE(WaitFor([&] {
    return serve::ExtractJsonNumber(
               second.Request(R"({"op":"metrics"})").value(),
               "active_connections")
               .value() <= 1;
  }));
  ExpectFollowUpJobSucceeds(*server);
}

TEST(ServeFailureTest, ShutdownDrainsAndStopsAccepting) {
  auto server = StartServer(ServeOptions{});
  ASSERT_NE(server, nullptr);
  int port = server->port();
  {
    ServeClient client = MustConnect(*server);
    auto response = client.Request(R"({"op":"shutdown"})");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_NE(response->find("\"ok\""), std::string::npos);
  }
  server->Wait();
  server.reset();
  auto late = serve::ServeClient::Connect(port);
  EXPECT_FALSE(late.ok()) << "daemon still accepting after shutdown";
}

TEST(ServeFailureTest, ConnectionSocketOptionsFailClosed) {
  ServeOptions options;
  options.request_timeout_seconds = 7;
  options.send_buffer_bytes = 16 * 1024;

  // A TCP socket takes every option: idle bound, send buffer, no Nagle.
  int tcp = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(tcp, 0);
  pdgf::Status configured = serve::ConfigureConnectionSocket(tcp, options);
  EXPECT_TRUE(configured.ok()) << configured.ToString();
  timeval timeout{};
  socklen_t length = sizeof(timeout);
  ASSERT_EQ(::getsockopt(tcp, SOL_SOCKET, SO_RCVTIMEO, &timeout, &length), 0);
  EXPECT_EQ(timeout.tv_sec, 7);
  int nodelay = 0;
  length = sizeof(nodelay);
  ASSERT_EQ(
      ::getsockopt(tcp, IPPROTO_TCP, TCP_NODELAY, &nodelay, &length), 0);
  EXPECT_EQ(nodelay, 1);
  ::close(tcp);

  // A Unix socket takes the socket-level options but not TCP_NODELAY:
  // the failure is reported, not skipped.
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  configured = serve::ConfigureConnectionSocket(pair[0], options);
  EXPECT_FALSE(configured.ok());
  EXPECT_NE(configured.message().find("TCP_NODELAY"), std::string::npos)
      << configured.ToString();
  ::close(pair[0]);
  ::close(pair[1]);

  // Not a socket at all: the first option (the idle bound) fails.
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  configured = serve::ConfigureConnectionSocket(pipe_fds[0], options);
  EXPECT_FALSE(configured.ok());
  EXPECT_NE(configured.message().find("SO_RCVTIMEO"), std::string::npos)
      << configured.ToString();
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

}  // namespace
