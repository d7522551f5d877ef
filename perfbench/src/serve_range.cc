// serve_range: a `dbsynthpp serve` daemon spawned from the built binary
// with default options, driven closed-loop by two client connections
// through serve::ServeClient. ~95% of requests are `range` windows
// (lineitem/orders/customer/partsupp at SF 1000, 100-1000 rows, half of
// them with digests); every 20th request (5%) is a `generate` job (TPC-H
// SF 0.01, a seeded one of 4 node shares). Every reply is checked against
// a local render.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cursor.h"
#include "core/engine.h"
#include "core/output/formatter.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "src/bench.h"
#include "src/stats.h"

extern char** environ;

namespace perfbench {

namespace {

constexpr int kClients = 2;
constexpr uint64_t kBulkEvery = 20;
constexpr int kBulkNodes = 4;
const char* const kRangeTables[] = {"lineitem", "orders", "customer",
                                    "partsupp"};

double SecondsSince(int64_t t0) {
  return static_cast<double>(NowNanos() - t0) / 1e9;
}

std::string RangeLine(const std::string& table, uint64_t first, uint64_t count,
                      bool digests) {
  return "{\"op\":\"range\",\"model\":\"tpch\",\"scale_factor\":1000,"
         "\"table\":\"" + table + "\",\"first_row\":" + std::to_string(first) +
         ",\"row_count\":" + std::to_string(count) +
         (digests ? ",\"digests\":true}" : "}");
}

std::string BulkLine(int node) {
  return "{\"model\":\"tpch\",\"scale_factor\":0.01,\"node_id\":" +
         std::to_string(node) + ",\"node_count\":" +
         std::to_string(kBulkNodes) + ",\"digests\":true}";
}

// Renders the window locally through the same cursor -> formatter ->
// digest path the daemon uses.
void RenderLocal(const Model& model, int table_index, uint64_t first,
                 uint64_t count, std::string* payload,
                 pdgf::TableDigest* digest) {
  static const pdgf::CsvFormatter formatter;
  const pdgf::TableDef& table =
      model.schema.tables[static_cast<size_t>(table_index)];
  pdgf::RowRangeCursor cursor(model.session.get(), table_index, first,
                              first + count);
  std::string buffer;
  std::vector<size_t> offsets;
  while (cursor.Next()) {
    buffer.clear();
    formatter.AppendBatch(table, cursor.batch(), &buffer, &offsets);
    pdgf::FoldBatchIntoDigest(cursor.batch(), buffer, offsets, digest);
    payload->append(buffer);
  }
}

struct ClientResult {
  std::vector<double> range_ms;
  std::vector<double> range_server_ms;
  std::vector<double> range_local_ms;
  std::vector<double> bulk_s;
  std::vector<double> bulk_server_s;
  uint64_t bulk_bytes = 0;
  uint64_t requests = 0;
  uint64_t payload_bytes = 0;
};

}  // namespace

pdgf::StatusOr<std::unique_ptr<Daemon>> Daemon::Spawn(
    const std::string& binary, const std::string& work_dir, int index) {
  const std::string port_file =
      work_dir + "/daemon" + std::to_string(index) + ".port";
  const std::string log = work_dir + "/daemon" + std::to_string(index) + ".log";
  std::filesystem::remove(port_file);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<std::string> args = {binary,   "serve", "--port", "0",
                                   "--port-file", port_file};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  auto daemon = std::unique_ptr<Daemon>(new Daemon());
  const int spawned = posix_spawn(&daemon->pid_, binary.c_str(), &actions,
                                  nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    daemon->pid_ = -1;
    return pdgf::InternalError("cannot spawn " + binary);
  }
  const int64_t start = NowNanos();
  while (SecondsSince(start) < 20) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) {
      auto client = serve::ServeClient::Connect(port);
      if (client.ok()) {
        auto pong = client->Request("{\"op\":\"ping\"}");
        if (pong.ok()) {
          daemon->port_ = port;
          return daemon;
        }
      }
    }
    int status = 0;
    if (waitpid(daemon->pid_, &status, WNOHANG) == daemon->pid_) {
      daemon->pid_ = -1;
      return pdgf::InternalError("daemon exited during start-up; see " + log);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pdgf::InternalError("daemon did not answer a ping within 20 s");
}

pdgf::Status Daemon::Shutdown() {
  if (pid_ <= 0) return pdgf::Status::Ok();
  auto client = serve::ServeClient::Connect(port_);
  if (client.ok()) (void)client->Request("{\"op\":\"shutdown\"}");
  const int64_t start = NowNanos();
  int status = 0;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (SecondsSince(start) > 10) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = -1;
      return pdgf::InternalError("daemon ignored shutdown; killed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0
             ? pdgf::Status::Ok()
             : pdgf::InternalError("daemon exited abnormally");
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
}

void RunServeRange(const RunContext& ctx, double seconds, Report* report) {
  RunServeRangeMin(ctx, seconds, 1000, report);
}

void RunServeRangeMin(const RunContext& ctx, double seconds,
                      uint64_t min_ranges, Report* report) {
  Tracer* tracer = ctx.tracer;
  std::filesystem::create_directories(ctx.work_dir);
  auto sf1000 = BuildTpchModel("1000");
  auto sf001 = BuildTpchModel("0.01");
  if (!report->CheckStatus(sf1000.status(), "serve: local SF 1000 model") ||
      !report->CheckStatus(sf001.status(), "serve: local SF 0.01 model")) {
    return;
  }
  const Model& big = **sf1000;

  // Expected digests of each bulk share, computed before the clock runs.
  std::vector<std::vector<pdgf::TableDigest>> share_digests(kBulkNodes);
  {
    pdgf::CsvFormatter csv;
    for (int node = 0; node < kBulkNodes; ++node) {
      pdgf::GenerationOptions options;
      options.node_count = kBulkNodes;
      options.node_id = node;
      options.compute_digests = true;
      auto stats = pdgf::GenerateToNull(*(*sf001)->session, csv, options);
      if (!report->CheckStatus(stats.status(), "serve: local bulk digests")) {
        return;
      }
      share_digests[static_cast<size_t>(node)] = stats->table_digests;
    }
  }
  const std::vector<std::string> small_tables = TableNames((*sf001)->schema);

  // Set-up: daemon spawn until the first ping answers, plus one warm-up
  // range request; repeated, the last daemon is kept for the run.
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < 11; ++i) {
    if (daemon != nullptr) {
      report->CheckStatus(daemon->Shutdown(), "serve: daemon shutdown");
    }
    const int64_t t0 = NowNanos();
    {
      ScopedSpan span(tracer, "serve", "SpawnDaemon");
      auto spawned = Daemon::Spawn(ctx.dbsynthpp, ctx.work_dir, i);
      if (!report->CheckStatus(spawned.status(), "serve: spawn daemon")) return;
      daemon = std::move(spawned).value();
    }
    auto client = serve::ServeClient::Connect(daemon->port());
    if (!report->CheckStatus(client.status(), "serve: connect")) return;
    auto warm = client->RunJob(RangeLine("lineitem", 0, 100, false));
    report->Check(warm.ok() && warm->ok, "serve: warm-up range request");
    setup.push_back(SecondsSince(t0));
  }
  report->Set("setup_s", Median(setup), "s", setup.size());

  // Ping latency on a control connection.
  {
    auto control = serve::ServeClient::Connect(daemon->port());
    if (!report->CheckStatus(control.status(), "serve: connect")) return;
    std::vector<double> ping_us;
    for (int i = 0; i < 100; ++i) {
      const int64_t t0 = NowNanos();
      auto pong = control->Request("{\"op\":\"ping\"}");
      ping_us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
      report->Check(pong.ok() && pong->find("\"ok\"") != std::string::npos,
                    "serve: ping");
    }
    report->Set("serve.ping_us", Median(ping_us), "us", ping_us.size());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ranges_done{0};
  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> clients;
  const int64_t start = NowNanos();
  std::atomic<int64_t> last_done{start};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientResult& out = results[static_cast<size_t>(c)];
      Rng rng(ctx.seed * 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(c) + 1);
      auto client = serve::ServeClient::Connect(daemon->port());
      if (!report->CheckStatus(client.status(), "serve: client connect")) {
        return;
      }
      for (uint64_t i = 0; !stop.load(); ++i) {
        const uint64_t request = (static_cast<uint64_t>(c) << 32) | (i + 1);
        ScopedSpan request_span(tracer, "bench", "request", 0, request, c + 1);
        if (i % kBulkEvery == kBulkEvery - 1) {
          const int node = static_cast<int>(rng.Uniform(0, kBulkNodes - 1));
          const int64_t t0 = NowNanos();
          pdgf::StatusOr<serve::StreamedJob> job = pdgf::Status::Ok();
          {
            ScopedSpan span(tracer, "serve", "RunJob.generate",
                            request_span.id(), request, c + 1);
            job = client->RunJob(BulkLine(node));
          }
          const double elapsed = SecondsSince(t0);
          ++out.requests;
          last_done.store(NowNanos());
          ScopedSpan check(tracer, "bench", "check.bulk", request_span.id(),
                           request, c + 1);
          if (!report->CheckStatus(job.status(), "serve: generate transport")) {
            return;
          }
          report->Check(job->ok, "serve: generate job " + job->error_message);
          uint64_t payload = 0;
          for (const auto& [table, bytes] : job->table_payload) {
            payload += bytes.size();
          }
          report->Check(payload == job->bytes, "serve: generate payload bytes");
          const auto& want = share_digests[static_cast<size_t>(node)];
          bool digests_ok = job->digests.size() == want.size();
          for (size_t t = 0; digests_ok && t < want.size(); ++t) {
            digests_ok = job->digests[t].table == small_tables[t] &&
                         job->digests[t].state == want[t];
          }
          report->Check(digests_ok, "serve: generate digest trailers");
          out.bulk_s.push_back(elapsed);
          out.bulk_server_s.push_back(job->seconds);
          out.bulk_bytes += payload;
          out.payload_bytes += payload;
          continue;
        }
        const std::string table = kRangeTables[rng.Uniform(0, 3)];
        const int table_index = big.schema.FindTableIndex(table);
        const uint64_t rows = big.session->TableRows(table_index);
        const uint64_t count = rng.Uniform(100, 1000);
        const uint64_t first = rng.Uniform(0, rows - count);
        const bool digests = rng.Chance(0.5);
        const int64_t t0 = NowNanos();
        pdgf::StatusOr<serve::StreamedJob> job = pdgf::Status::Ok();
        {
          ScopedSpan span(tracer, "serve", "RunJob.range", request_span.id(),
                          request, c + 1);
          job = client->RunJob(RangeLine(table, first, count, digests));
        }
        const double ms = static_cast<double>(NowNanos() - t0) / 1e6;
        ++out.requests;
        last_done.store(NowNanos());
        ranges_done.fetch_add(1);
        ScopedSpan check(tracer, "bench", "check.range", request_span.id(),
                         request, c + 1);
        if (!report->CheckStatus(job.status(), "serve: range transport")) {
          return;
        }
        report->Check(job->ok, "serve: range job " + job->error_message);
        std::string expected;
        pdgf::TableDigest digest;
        const int64_t l0 = NowNanos();
        {
          ScopedSpan span(tracer, "core.cursor", "RenderLocal",
                          check.id(), request, c + 1);
          RenderLocal(big, table_index, first, count, &expected, &digest);
        }
        out.range_local_ms.push_back(static_cast<double>(NowNanos() - l0) /
                                     1e6);
        report->Check(job->table_payload[table] == expected,
                      "serve: range payload equals the local cursor render");
        if (digests) {
          report->Check(job->digests.size() == 1 &&
                            job->digests[0].state == digest &&
                            job->digests[0].hex == digest.Hex(),
                        "serve: range digest equals FoldBatchIntoDigest");
        }
        out.payload_bytes += expected.size();
        out.range_ms.push_back(ms);
        out.range_server_ms.push_back(job->seconds * 1e3);
      }
    });
  }
  while (true) {
    const double elapsed = SecondsSince(start);
    if ((elapsed >= seconds && ranges_done.load() >= min_ranges) ||
        elapsed >= 3 * seconds + 5) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const double wall = static_cast<double>(last_done.load() - start) / 1e9;

  ClientResult all;
  for (const ClientResult& r : results) {
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&all.range_ms, r.range_ms);
    append(&all.range_server_ms, r.range_server_ms);
    append(&all.range_local_ms, r.range_local_ms);
    append(&all.bulk_s, r.bulk_s);
    append(&all.bulk_server_s, r.bulk_server_s);
    all.bulk_bytes += r.bulk_bytes;
    all.payload_bytes += r.payload_bytes;
    all.requests += r.requests;
  }
  std::vector<double> wire_ms;
  uint64_t wire_slow = 0;
  for (size_t i = 0; i < all.range_ms.size(); ++i) {
    wire_ms.push_back(all.range_ms[i] - all.range_server_ms[i]);
    if (wire_ms.back() > 10.0) ++wire_slow;
  }
  std::vector<double> bulk_wire;
  for (size_t i = 0; i < all.bulk_s.size(); ++i) {
    bulk_wire.push_back(all.bulk_s[i] - all.bulk_server_s[i]);
  }
  const size_t n = all.range_ms.size();
  report->Check(n > 0 && !all.bulk_s.empty(),
                "serve: both range and generate requests completed");
  const double rps = static_cast<double>(all.requests) / wall;
  report->Set("serve_rps", rps, "req/s", all.requests);
  report->Set("ops_s", rps, "1/s", all.requests);
  report->Set("serve_range_p50_ms", Median(all.range_ms), "ms", n);
  report->Set("op_p50_ms", Median(all.range_ms), "ms", n);
  report->Set("serve_range_p99_ms", Percentile(all.range_ms, 99), "ms", n);
  report->Set("op_tail_ms", Percentile(all.range_ms, 99), "ms", n);
  double bulk_total_s = 0;
  for (double s : all.bulk_s) bulk_total_s += s;
  report->Set("serve_bulk_mb_s",
              bulk_total_s > 0
                  ? static_cast<double>(all.bulk_bytes) / 1e6 / bulk_total_s
                  : 0,
              "MB/s", all.bulk_s.size());
  report->Set("work_mb_s", static_cast<double>(all.payload_bytes) / 1e6 / wall,
              "MB/s", all.requests);
  report->Set("serve.range.server_ms", Median(all.range_server_ms), "ms", n);
  report->Set("serve.range.wire_ms_p50", Median(wire_ms), "ms", n);
  report->Set("serve.range.wire_ms_p99", Percentile(wire_ms, 99), "ms", n);
  report->Set("serve.range.wire_gt_10ms_share",
              n == 0 ? 0
                     : static_cast<double>(wire_slow) / static_cast<double>(n),
              "ratio", n);
  report->Set("serve.range.local_ms", Median(all.range_local_ms), "ms", n);
  report->Set("serve.bulk.server_s", Median(all.bulk_server_s), "s",
              all.bulk_s.size());
  report->Set("serve.bulk.wire_s", Median(bulk_wire), "s", all.bulk_s.size());

  // Daemon-side counters, memory and CPU, then a clean shutdown.
  auto control = serve::ServeClient::Connect(daemon->port());
  if (report->CheckStatus(control.status(), "serve: connect for metrics")) {
    auto metrics = control->Request("{\"op\":\"metrics\"}");
    if (report->CheckStatus(metrics.status(), "serve: metrics op")) {
      for (const char* key : {"bytes_streamed", "rows_streamed", "jobs_failed",
                              "requests_malformed"}) {
        auto value = serve::ExtractJsonNumber(*metrics, key);
        report->Check(value.ok(), std::string("serve: metrics has ") + key);
        report->Set(std::string("serve.counters.") + key,
                    value.ok() ? *value : -1, "count");
      }
      report->Check(report->Get("serve.counters.jobs_failed") == 0 &&
                        report->Get("serve.counters.requests_malformed") == 0,
                    "serve: no failed jobs or malformed requests");
    }
  }
  report->Set("peak_rss_mb", PeakRssMb(daemon->pid()), "MB");
  double user = 0;
  double sys = 0;
  CpuSeconds(daemon->pid(), &user, &sys);
  report->Set("proc.daemon_cpu_user_s", user, "s");
  report->Set("proc.daemon_cpu_sys_s", sys, "s");
  report->CheckStatus(daemon->Shutdown(), "serve: daemon shutdown");
}

}  // namespace perfbench
