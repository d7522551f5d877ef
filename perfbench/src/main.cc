// perfbench_run: runs one benchmark workload and prints one JSON report
// line (host block, correctness ledger, every metric with unit and sample
// count). perfbench/run.py builds this binary and selects the metrics
// BENCHMARK.json names from the report.
//
//   perfbench_run --workload gen_csv|load_query_paged|serve_range
//                 --seed N --seconds S --trace 0|1
//                 --dbsynthpp PATH --work-dir DIR --expected-dir DIR
//                 [--trace-out FILE] [--git-sha SHA] [--record]

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "common/simd.h"
#include "common/topology.h"
#include "src/bench.h"
#include "src/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Layers whose self time the traced run reports (0 when a workload does
// not reach the layer).
const char* const kTracedLayers[] = {
    "bench",          "core.session",   "core.engine", "core.cursor",
    "dbsynth",        "minidb.storage", "minidb.stats", "minidb.sql",
    "serve"};

int Usage(const std::string& error) {
  std::cerr << "perfbench_run: " << error
            << "\nusage: perfbench_run --workload W --seed N --seconds S "
               "--trace 0|1 --dbsynthpp PATH --work-dir DIR --expected-dir DIR "
               "[--trace-out FILE] [--git-sha SHA] [--record]\n";
  return 2;
}

bool RunWorkload(const RunContext& ctx, double seconds, Report* report) {
  if (ctx.workload == "gen_csv") {
    RunGenCsv(ctx, seconds, report);
  } else if (ctx.workload == "load_query_paged") {
    RunLoadQuery(ctx, seconds, report);
  } else if (ctx.workload == "serve_range") {
    RunServeRange(ctx, seconds, report);
  } else {
    return false;
  }
  std::filesystem::remove_all(ctx.work_dir);
  return true;
}

std::string HostJson(const std::string& git_sha) {
  std::string out = "{";
  out += "\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ",\"affinity_cpus\":" + std::to_string(pdgf::AffinityCpuCount());
  out += ",\"topology\":" + JsonQuote(pdgf::Topology::System().Describe());
  out += ",\"simd\":" + JsonQuote(pdgf::simd::SimdDispatchName());
  out += ",\"compiler\":" + JsonQuote(std::string("gcc ") + __VERSION__);
  out += ",\"build_type\":" + JsonQuote(PERFBENCH_BUILD_TYPE);
  out += ",\"git_sha\":" + JsonQuote(git_sha);
  out += "}";
  return out;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record") {
      record = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Usage("bad argument '" + arg + "'");
    }
    flags[arg.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "dbsynthpp", "work-dir", "expected-dir"}) {
    if (flags.count(required) == 0) {
      return Usage(std::string("missing --") + required);
    }
  }
  RunContext ctx;
  ctx.workload = flags["workload"];
  char* end = nullptr;
  ctx.seed = std::strtoull(flags["seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage("--seed must be a whole number");
  ctx.seconds = std::strtod(flags["seconds"].c_str(), &end);
  if (*end != '\0' || !(ctx.seconds > 0)) return Usage("--seconds must be > 0");
  const std::string trace_flag = flags["trace"];
  if (trace_flag != "0" && trace_flag != "1") {
    return Usage("--trace takes 0 or 1");
  }
  const bool traced = trace_flag == "1";
  ctx.dbsynthpp = flags["dbsynthpp"];
  ctx.work_dir = flags["work-dir"];
  ctx.expected_dir = flags["expected-dir"];
  ctx.record = record;

  Report report;
  if (!traced) {
    if (!RunWorkload(ctx, ctx.seconds, &report)) {
      return Usage("unknown workload '" + ctx.workload + "'");
    }
  } else {
    // Same workload and inputs twice, first untraced, then with a span
    // around every public call; the rate difference is the overhead.
    Report untraced;
    RunContext plain = ctx;
    plain.work_dir = ctx.work_dir + "/untraced";
    if (!RunWorkload(plain, ctx.seconds / 2, &untraced)) {
      return Usage("unknown workload '" + ctx.workload + "'");
    }
    Tracer tracer(true);
    RunContext spanned = ctx;
    spanned.tracer = &tracer;
    spanned.work_dir = ctx.work_dir + "/traced";
    Report traced_report;
    RunWorkload(spanned, ctx.seconds / 2, &traced_report);
    report.Absorb(untraced, {});
    report.Absorb(traced_report, {"serve.", "proc.daemon_"});
    const double plain_rate = untraced.Get("ops_s");
    const double spanned_rate = traced_report.Get("ops_s");
    report.Set("trace.overhead_pct",
               spanned_rate > 0 ? (plain_rate / spanned_rate - 1.0) * 100.0 : 0,
               "%");

    const std::vector<Span> spans = tracer.spans();
    const std::map<std::string, double> self = SelfSecondsByLayer(spans);
    for (const char* layer : kTracedLayers) {
      auto it = self.find(layer);
      report.Set(std::string("trace.self_s.") + layer,
                 it == self.end() ? 0.0 : it->second, "s");
    }
    report.Set("trace.spans", static_cast<double>(spans.size()), "count");
    if (flags.count("trace-out") != 0) {
      std::ofstream out(flags["trace-out"], std::ios::trunc);
      out << ChromeTraceJson(spans);
      report.Check(static_cast<bool>(out),
                   "trace: write " + flags["trace-out"]);
    }

    RunContext suite = ctx;
    suite.work_dir = ctx.work_dir + "/suite";
    RunLayerSuite(suite, &report);
    std::filesystem::remove_all(suite.work_dir);
  }
  std::filesystem::remove_all(ctx.work_dir);

  double user = 0;
  double sys = 0;
  CpuSeconds(0, &user, &sys);
  report.Set("proc.cpu_user_s", user, "s");
  report.Set("proc.cpu_sys_s", sys, "s");
  const uint64_t attempted = report.attempted();
  const uint64_t failed = report.failed();
  report.Set("ok_ratio",
             attempted == 0 ? 0
                            : static_cast<double>(attempted - failed) /
                                  static_cast<double>(attempted),
             "ratio", attempted);

  std::string line = "{\"workload\":" + JsonQuote(ctx.workload) +
                     ",\"seed\":" + std::to_string(ctx.seed) +
                     ",\"seconds\":" + JsonNumber(ctx.seconds) +
                     ",\"trace\":" + trace_flag +
                     ",\"host\":" +
                     HostJson(flags.count("git-sha") ? flags["git-sha"]
                                                     : "unknown") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : report.metrics()) {
    if (!first) line += ",";
    first = false;
    line += JsonQuote(name) + ":{\"value\":" + JsonNumber(metric.value) +
            ",\"unit\":" + JsonQuote(metric.unit) +
            ",\"samples\":" + std::to_string(metric.samples) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return failed == 0 && attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
