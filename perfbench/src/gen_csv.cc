// gen_csv: the paper's headline path. TPC-H at SF 0.1 (866 k rows,
// ~117 MB of CSV) through GenerateToDirectory with default options and 4
// workers, repeated for the measured budget. Every generated file is
// hashed (outside the timed region) against the recorded expectation and
// deleted before the next job, so the dirty data of one run stays below
// the kernel's background-writeback threshold.

#include <malloc.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/output/formatter.h"
#include "src/bench.h"
#include "src/stats.h"

namespace perfbench {

namespace {

constexpr char kScaleFactor[] = "0.1";
constexpr int kWorkers = 4;

std::string ExpectedPath(const RunContext& ctx) {
  return ctx.expected_dir + "/gen_csv_tpch_sf0.1.txt";
}

}  // namespace

void RunGenCsv(const RunContext& ctx, double seconds, Report* report) {
  Tracer* tracer = ctx.tracer;
  const std::string out_dir = ctx.work_dir + "/gen_csv";

  // Set-up: model build + session. A few samples are taken before every
  // job, so they span the run like the jobs do; the median is reported.
  // The output directory is prepared outside the timed region: right
  // after a job's files are deleted, file-system metadata calls vary by
  // more than the set-up itself takes.
  std::vector<double> setup;
  std::unique_ptr<Model> model;
  auto setup_samples = [&]() {
    for (int i = 0; i < 5; ++i) {
      const int64_t t0 = NowNanos();
      ScopedSpan span(tracer, "core.session", "BuildTpchModel");
      auto built = BuildTpchModel(kScaleFactor);
      if (!report->CheckStatus(built.status(), "gen_csv: session")) {
        return false;
      }
      model = std::move(built).value();
      setup.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    }
    std::filesystem::remove_all(out_dir);
    std::filesystem::create_directories(out_dir);
    return true;
  };
  if (!setup_samples()) return;

  const std::vector<std::string> tables = TableNames(model->schema);
  std::map<std::string, std::string> expected = ReadExpected(ExpectedPath(ctx));
  if (!ctx.record) {
    report->Check(expected.size() == tables.size(),
                  "gen_csv: expected hashes recorded for every table (" +
                      ExpectedPath(ctx) + ")");
  }

  pdgf::CsvFormatter formatter;
  pdgf::GenerationOptions options;
  options.worker_count = kWorkers;

  std::vector<double> job_seconds;
  std::vector<double> job_mb_s;
  uint64_t bytes_total = 0;
  const int64_t start = NowNanos();
  uint64_t job = 0;
  while (job_seconds.size() < 2 ||
         static_cast<double>(NowNanos() - start) / 1e9 < seconds) {
    if (job > 0 && !setup_samples()) return;
    ++job;
    ScopedSpan job_span(tracer, "bench", "gen_csv.job", 0, job);
    const int64_t t0 = NowNanos();
    pdgf::StatusOr<pdgf::GenerationEngine::Stats> stats = pdgf::Status::Ok();
    {
      ScopedSpan span(tracer, "core.engine", "GenerateToDirectory",
                      job_span.id(), job);
      stats = pdgf::GenerateToDirectory(*model->session, formatter, out_dir,
                                        options);
    }
    const double elapsed = static_cast<double>(NowNanos() - t0) / 1e9;
    if (!report->CheckStatus(stats.status(), "gen_csv: GenerateToDirectory")) {
      return;
    }
    job_seconds.push_back(elapsed);
    job_mb_s.push_back(static_cast<double>(stats->bytes) / 1e6 / elapsed);
    bytes_total += stats->bytes;

    ScopedSpan check(tracer, "bench", "check.file_hashes", job_span.id(), job);
    std::map<std::string, std::string> actual;
    for (const std::string& table : tables) {
      const std::string path = out_dir + "/" + table + ".csv";
      actual[table] = HashFileHex(path) + " " + std::to_string(FileBytes(path));
      if (!ctx.record) {
        report->Check(actual[table] == expected[table],
                      "gen_csv: " + table + ".csv hash/bytes " + actual[table] +
                          " != recorded " + expected[table]);
      }
      std::filesystem::remove(path);
    }
    // Hand the job's freed buffers back to the kernel, so each job starts
    // from the same resident baseline as a fresh `dbsynthpp generate`
    // process would, and peak RSS measures one job, not allocator drift
    // across jobs.
    malloc_trim(0);
    if (ctx.record && job == 1) {
      report->Check(WriteExpected(ExpectedPath(ctx), actual,
                                  "table ByteStreamHash bytes, TPC-H SF 0.1 "
                                  "CSV from GenerateToDirectory"),
                    "gen_csv: write expected hashes");
    }
  }
  std::filesystem::remove_all(out_dir);
  report->Set("setup_s", Median(setup), "s", setup.size());

  double job_total = 0;
  for (double s : job_seconds) job_total += s;
  const size_t n = job_seconds.size();
  report->Set("work_mb_s", Median(job_mb_s), "MB/s", n);
  report->Set("gen_mb_s", Median(job_mb_s), "MB/s", n);
  report->Set("ops_s", static_cast<double>(n) / job_total, "1/s", n);
  report->Set("op_p50_ms", Median(job_seconds) * 1e3, "ms", n);
  // p90: with ~100 jobs per run it has ~10 samples beyond it; the
  // slowest job alone moved by 24% between runs.
  report->Set("op_tail_ms", Percentile(job_seconds, 90) * 1e3, "ms", n);
  report->Set("gen.bytes_per_job",
              static_cast<double>(bytes_total) / static_cast<double>(n),
              "bytes", n);
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
