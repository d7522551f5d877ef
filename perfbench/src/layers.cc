// Isolation passes of the traced run: each layer's public function
// called alone on seeded inputs shaped like the workloads' own (the
// TPC-H model, the recorded query pool, PK keys drawn uniformly, serve
// range windows). Timed directly with the steady clock.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/cursor.h"
#include "core/engine.h"
#include "core/metrics/metrics.h"
#include "core/output/formatter.h"
#include "core/output/sink.h"
#include "dbsynth/schema_translator.h"
#include "minidb/database.h"
#include "minidb/sql.h"
#include "minidb/sql_parser.h"
#include "minidb/stats.h"
#include "src/bench.h"
#include "src/stats.h"
#include "workloads/tpch.h"

namespace perfbench {

namespace {

double SecondsSince(int64_t t0) {
  return static_cast<double>(NowNanos() - t0) / 1e9;
}

double Ns(int64_t t0) { return static_cast<double>(NowNanos() - t0); }

// core.session, core.generators/core.batch (cursor), core.output
// (formatter, digest, FileSink).
void CoreLayers(const RunContext& ctx, Rng* rng, Report* report) {
  {
    const pdgf::SchemaDef schema = workloads::BuildTpchSchema();
    std::vector<double> create_s;
    for (int i = 0; i < 25; ++i) {
      const int64_t t0 = NowNanos();
      auto session = pdgf::GenerationSession::Create(&schema, {{"SF", "0.5"}});
      create_s.push_back(SecondsSince(t0));
      report->Check(session.ok(), "layers: GenerationSession::Create");
    }
    report->Set("core.session.create_s", Median(create_s), "s",
                create_s.size());
  }

  auto built = BuildTpchModel("1");
  if (!report->CheckStatus(built.status(), "layers: SF 1 model")) return;
  const Model& model = **built;
  const pdgf::CsvFormatter formatter;
  constexpr uint64_t kRowsPerTable = 20000;
  std::string sink_bytes;
  double digest_ns = 0;
  uint64_t digest_rows = 0;
  for (size_t t = 0; t < model.schema.tables.size(); ++t) {
    const int table_index = static_cast<int>(t);
    const pdgf::TableDef& table = model.schema.tables[t];
    const uint64_t rows = model.session->TableRows(table_index);
    const uint64_t window = std::min(rows, kRowsPerTable);
    pdgf::RowRangeCursor cursor;
    std::string buffer;
    std::vector<size_t> offsets;
    pdgf::TableDigest digest;
    double cursor_ns = 0;
    double format_ns = 0;
    uint64_t done = 0;
    while (done < kRowsPerTable) {
      const uint64_t first = rng->Uniform(0, rows - window);
      cursor.Reset(model.session.get(), table_index, first, first + window);
      while (true) {
        int64_t t0 = NowNanos();
        const bool more = cursor.Next();
        cursor_ns += Ns(t0);
        if (!more) break;
        buffer.clear();
        t0 = NowNanos();
        formatter.AppendBatch(table, cursor.batch(), &buffer, &offsets);
        format_ns += Ns(t0);
        t0 = NowNanos();
        pdgf::FoldBatchIntoDigest(cursor.batch(), buffer, offsets, &digest);
        digest_ns += Ns(t0);
        done += cursor.batch().row_count();
        digest_rows += cursor.batch().row_count();
        if (table.name == "lineitem" && sink_bytes.size() < (16u << 20)) {
          sink_bytes += buffer;
        }
      }
    }
    report->Set("core.cursor.ns_per_row." + table.name,
                cursor_ns / static_cast<double>(done), "ns", done);
    report->Set("core.format.ns_per_row." + table.name,
                format_ns / static_cast<double>(done), "ns", done);
  }
  report->Set("core.digest.ns_per_row",
              digest_ns / static_cast<double>(digest_rows), "ns", digest_rows);

  // FileSink::Write of formatted lineitem buffers, 1 MiB at a time.
  const std::string path = ctx.work_dir + "/sink.csv";
  auto sink = pdgf::FileSink::Open(path);
  if (!report->CheckStatus(sink.status(), "layers: FileSink::Open")) return;
  constexpr size_t kChunk = 1 << 20;
  constexpr uint64_t kSinkBytes = 64u << 20;
  uint64_t written = 0;
  const int64_t t0 = NowNanos();
  while (written < kSinkBytes) {
    for (size_t off = 0; off < sink_bytes.size(); off += kChunk) {
      const std::string_view chunk =
          std::string_view(sink_bytes).substr(off, kChunk);
      report->CheckStatus((*sink)->Write(chunk), "layers: FileSink::Write");
      written += chunk.size();
    }
  }
  report->CheckStatus((*sink)->Close(), "layers: FileSink::Close");
  report->Set("core.sink.file_mb_s",
              static_cast<double>(written) / 1e6 / SecondsSince(t0), "MB/s");
  report->Check(FileBytes(path) == written,
                "layers: FileSink wrote every byte");
  std::filesystem::remove(path);
}

// core.engine: GenerateToNull at 1 and 4 workers (real thread scale-up),
// and the engine's own phase timers from a metrics-enabled file run.
void EngineLayers(const RunContext& ctx, Report* report) {
  auto built = BuildTpchModel("0.05");
  if (!report->CheckStatus(built.status(), "layers: SF 0.05 model")) return;
  const pdgf::GenerationSession& session = *(*built)->session;
  const pdgf::CsvFormatter formatter;
  auto null_mb_s = [&](int workers) {
    pdgf::GenerationOptions options;
    options.worker_count = workers;
    const int64_t t0 = NowNanos();
    auto stats = pdgf::GenerateToNull(session, formatter, options);
    const double elapsed = SecondsSince(t0);
    report->CheckStatus(stats.status(), "layers: GenerateToNull");
    return stats.ok() ? static_cast<double>(stats->bytes) / 1e6 / elapsed : 0.0;
  };
  const double w1 = null_mb_s(1);
  std::vector<double> w4;
  for (int i = 0; i < 3; ++i) w4.push_back(null_mb_s(4));
  report->Set("core.engine.null_mb_s.w1", w1, "MB/s");
  report->Set("core.engine.null_mb_s.w4", Median(w4), "MB/s", w4.size());
  report->Set("core.engine.scaleup_w4", w1 > 0 ? Median(w4) / w1 : 0, "ratio");

  pdgf::GenerationOptions options;
  options.worker_count = 4;
  options.metrics_enabled = true;
  const std::string dir = ctx.work_dir + "/phases";
  auto stats = pdgf::GenerateToDirectory(session, formatter, dir, options);
  if (report->CheckStatus(stats.status(), "layers: GenerateToDirectory")) {
    const pdgf::MetricsReport& metrics = stats->metrics;
    auto phase = [&](pdgf::Phase p) {
      return metrics.phase_seconds[static_cast<int>(p)];
    };
    double writer_write = 0;
    double writer_idle = 0;
    for (const auto& writer : metrics.writer_threads) {
      writer_write += writer.write_seconds;
      writer_idle += writer.idle_seconds;
    }
    report->Set("engine.phase.row_generation_s",
                phase(pdgf::Phase::kRowGeneration), "s");
    report->Set("engine.phase.formatting_s", phase(pdgf::Phase::kFormatting),
                "s");
    report->Set("engine.phase.sink_wait_s", phase(pdgf::Phase::kSinkWait), "s");
    report->Set("engine.phase.writer_write_s", writer_write, "s");
    report->Set("engine.phase.writer_idle_s", writer_idle, "s");
  }
  std::filesystem::remove_all(dir);
}

// dbsynth.schema_translator, minidb.storage, minidb.stats, minidb.sql.
void MinidbLayers(const RunContext& ctx, Rng* rng, Report* report) {
  const bool load_sf = ctx.workload == "load_query_paged";
  const std::string sf = load_sf ? "0.05" : "0.01";
  auto built = BuildTpchModel(sf);
  if (!report->CheckStatus(built.status(), "layers: load model")) return;
  const Model& model = **built;
  const pdgf::GenerationSession& session = *model.session;
  const std::vector<std::string> tables = TableNames(model.schema);
  auto config = [&](const std::string& dir) {
    minidb::EngineConfig c;
    c.kind = minidb::EngineKind::kPaged;
    c.data_dir = dir;
    return c;
  };

  // The scalar GenerateRow loop over every row the load generates.
  uint64_t total_rows = 0;
  double generate_ns = 0;
  {
    std::vector<pdgf::Value> row;
    for (size_t t = 0; t < tables.size(); ++t) {
      const uint64_t rows = session.TableRows(static_cast<int>(t));
      const int64_t t0 = NowNanos();
      for (uint64_t r = 0; r < rows; ++r) {
        session.GenerateRow(static_cast<int>(t), r, 0, &row);
      }
      generate_ns += Ns(t0);
      total_rows += rows;
    }
  }
  report->Set("core.generate_row.ns_per_row",
              generate_ns / static_cast<double>(total_rows), "ns", total_rows);

  // The whole load path, then the same rows through the storage bulk
  // path alone: what is left is the translator's Value building and
  // coercion.
  const std::string dir_a = ctx.work_dir + "/layers_a";
  const std::string dir_b = ctx.work_dir + "/layers_b";
  auto a = std::make_unique<minidb::Database>(config(dir_a));
  if (!report->CheckStatus(dbsynth::CreateTargetSchema(model.schema, a.get()),
                           "layers: CreateTargetSchema")) {
    return;
  }
  int64_t t0 = NowNanos();
  auto loaded = dbsynth::FastLoadGeneratedData(session, a.get());
  const double fast_s = SecondsSince(t0);
  if (!report->CheckStatus(loaded.status(), "layers: FastLoadGeneratedData")) {
    return;
  }

  minidb::Database b(config(dir_b));
  if (!report->CheckStatus(dbsynth::CreateTargetSchema(model.schema, &b),
                           "layers: CreateTargetSchema")) {
    return;
  }
  double append_ns = 0;
  double finish_s = 0;
  for (const std::string& name : tables) {
    std::vector<minidb::Row> rows;
    a->GetTable(name)->Scan([&](const minidb::Row& row) {
      rows.push_back(row);
      return true;
    });
    minidb::Table* table = b.GetTable(name);
    report->CheckStatus(table->BulkLoadBegin(), "layers: BulkLoadBegin");
    t0 = NowNanos();
    for (minidb::Row& row : rows) {
      if (!table->BulkLoadAppend(std::move(row)).ok()) {
        report->Check(false, "layers: BulkLoadAppend");
        break;
      }
    }
    append_ns += Ns(t0);
    t0 = NowNanos();
    report->CheckStatus(table->BulkLoadFinish(), "layers: BulkLoadFinish");
    finish_s += SecondsSince(t0);
  }
  a.reset();
  std::filesystem::remove_all(dir_a);
  t0 = NowNanos();
  report->CheckStatus(b.CheckpointAll(), "layers: CheckpointAll");
  report->Set("minidb.checkpoint_s", SecondsSince(t0), "s");
  report->Set("minidb.bulk_append_ns_per_row",
              append_ns / static_cast<double>(total_rows), "ns", total_rows);
  report->Set("minidb.bulk_finish_s", finish_s, "s");
  report->Set("dbsynth.load.translate_s",
              fast_s - generate_ns / 1e9 - append_ns / 1e9 - finish_s, "s");
  report->Set("minidb.disk.pages_bytes",
              static_cast<double>(TreeBytes(dir_b, ".pages")), "bytes");
  report->Set("minidb.disk.wal_bytes",
              static_cast<double>(TreeBytes(dir_b, ".wal")), "bytes");

  // Scan and ANALYZE over every table.
  uint64_t scanned = 0;
  t0 = NowNanos();
  for (const std::string& name : tables) {
    b.GetTable(name)->Scan([&](const minidb::Row&) {
      ++scanned;
      return true;
    });
  }
  report->Set("minidb.scan_ns_per_row", Ns(t0) / static_cast<double>(scanned),
              "ns", scanned);
  report->Check(scanned == total_rows, "layers: Scan visits every row");
  t0 = NowNanos();
  for (const std::string& name : tables) {
    minidb::TableStats stats = minidb::AnalyzeTable(*b.GetTable(name));
    report->Check(stats.row_count == b.GetTable(name)->row_count(),
                  "layers: AnalyzeTable row count");
  }
  report->Set("minidb.analyze_ns_per_row",
              Ns(t0) / static_cast<double>(total_rows), "ns", total_rows);

  // PK lookups, then read/write of whole rows by ordinal on orders.
  minidb::Table* orders = b.GetTable("orders");
  const uint64_t order_rows = orders->row_count();
  const int key_column = minidb::Table::IndexableKeyColumn(orders->schema());
  std::vector<double> lookup_us;
  for (int i = 0; i < 2000; ++i) {
    const int64_t key = static_cast<int64_t>(rng->Uniform(1, order_rows));
    std::vector<minidb::Row> found;
    t0 = NowNanos();
    report->CheckStatus(orders->PkLookup(key, &found), "layers: PkLookup");
    lookup_us.push_back(Ns(t0) / 1e3);
    report->Check(found.size() == 1 &&
                      found[0][static_cast<size_t>(key_column)].AsInt() == key,
                  "layers: PkLookup returns the keyed row");
  }
  report->Set("minidb.pk_lookup_us", Median(lookup_us), "us", lookup_us.size());
  // WAL growth is read over the first writes only: past
  // checkpoint_dirty_pages the engine checkpoints and rewrites the WAL.
  constexpr int kWalWrites = 100;
  const uint64_t wal_before = TreeBytes(dir_b, ".wal");
  uint64_t wal_after = wal_before;
  std::vector<double> read_us;
  std::vector<double> write_us;
  minidb::Row row;
  for (int i = 0; i < 2000; ++i) {
    const size_t ordinal = static_cast<size_t>(rng->Uniform(0, order_rows - 1));
    t0 = NowNanos();
    const pdgf::Status read = orders->ReadRow(ordinal, &row);
    read_us.push_back(Ns(t0) / 1e3);
    if (!report->CheckStatus(read, "layers: ReadRow")) break;
    t0 = NowNanos();
    const pdgf::Status write = orders->WriteRow(ordinal, row);
    write_us.push_back(Ns(t0) / 1e3);
    if (!report->CheckStatus(write, "layers: WriteRow")) break;
    if (i + 1 == kWalWrites) wal_after = TreeBytes(dir_b, ".wal");
  }
  report->Set("minidb.read_row_us", Median(read_us), "us", read_us.size());
  report->Set("minidb.write_row_us", Median(write_us), "us", write_us.size());
  report->Set("minidb.wal_bytes_per_write",
              static_cast<double>(wal_after - wal_before) / kWalWrites, "bytes",
              kWalWrites);

  // SQL: parse cost over the query pool, execution time by shape.
  const std::vector<std::string> pool = QueryPool(session);
  std::vector<double> parse_us;
  std::vector<minidb::SelectStatement> parsed;
  for (const std::string& sql : pool) {
    t0 = NowNanos();
    auto statement = minidb::ParseSql(sql);
    parse_us.push_back(Ns(t0) / 1e3);
    if (!report->CheckStatus(statement.status(), "layers: ParseSql")) return;
    parsed.push_back(std::get<minidb::SelectStatement>(*statement));
  }
  report->Set("minidb.sql.parse_us", Median(parse_us), "us", parse_us.size());
  const std::map<std::string, std::string> expected =
      load_sf ? ReadExpected(ctx.expected_dir + "/queries_tpch_sf0.05.txt")
              : std::map<std::string, std::string>();
  std::map<std::string, std::vector<double>> shape_ms;
  uint64_t rows_returned = 0;
  const int64_t phase = NowNanos();
  for (size_t i = 0;
       i < pool.size() && (i < 64 || SecondsSince(phase) < 1.5); ++i) {
    const size_t index = rng->Uniform(0, pool.size() - 1);
    t0 = NowNanos();
    auto result = minidb::ExecuteSql(&b, pool[index]);
    const double ms = Ns(t0) / 1e6;
    if (!report->CheckStatus(result.status(), "layers: ExecuteSql")) continue;
    const minidb::Table* table = b.GetTable(parsed[index].table);
    shape_ms[QueryShape(parsed[index], table ? &table->schema() : nullptr)]
        .push_back(ms);
    rows_returned += result->rows.size();
    if (!expected.empty()) {
      report->Check(ResultFingerprint(*result) ==
                        expected.at(std::to_string(index)),
                    "layers: query " + std::to_string(index) + " fingerprint");
    }
  }
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = rng->Uniform(1, order_rows);
    t0 = NowNanos();
    auto result = minidb::ExecuteSql(
        &b, "SELECT * FROM orders WHERE o_orderkey = " + std::to_string(key));
    shape_ms["pk_point"].push_back(Ns(t0) / 1e6);
    if (report->CheckStatus(result.status(), "layers: PK SELECT")) {
      report->Check(result->rows.size() == 1,
                    "layers: PK SELECT returns one row");
      rows_returned += result->rows.size();
    }
  }
  for (const char* shape : {"project", "filter", "aggregate", "group_by",
                            "order_limit", "pk_point"}) {
    const auto& samples = shape_ms[shape];
    report->Set(std::string("minidb.sql.") + shape + "_ms", Median(samples),
                "ms", samples.size());
  }
  report->Set("minidb.sql.rows_returned", static_cast<double>(rows_returned),
              "count");
  std::filesystem::remove_all(dir_b);
}

}  // namespace

void RunLayerSuite(const RunContext& ctx, Report* report) {
  std::filesystem::create_directories(ctx.work_dir);
  Rng rng(ctx.seed ^ 0x6c8e9cf570932bd5ULL);
  CoreLayers(ctx, &rng, report);
  EngineLayers(ctx, report);
  MinidbLayers(ctx, &rng, report);
  if (ctx.workload != "serve_range") {
    // A short serve run supplies the serve layer metrics.
    Report serve;
    RunContext short_ctx = ctx;
    short_ctx.tracer = nullptr;
    short_ctx.work_dir = ctx.work_dir + "/serve";
    RunServeRangeMin(short_ctx, 1.0, 60, &serve);
    report->Absorb(serve, {"serve.", "proc.daemon_"});
  }
}

}  // namespace perfbench
