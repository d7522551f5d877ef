// load_query_paged: TPC-H SF 0.05 (433 k rows) through the DBSynth schema
// translator into MiniDB's paged engine, then ANALYZE, a seeded SELECT mix
// from dbsynth::QueryGenerator and a seeded point mix of PK SELECTs and PK
// UPDATEs on orders and customer. The ~83 MB of pages are ~80x the
// engine's default 1 MiB buffer pool.
//
// Set-up is sampled first. Then four client threads run the steps, each
// against its own database, and their samples are pooled. Each client
// works in rounds (loads, a quarter of the query pool, a slice of the
// point mix, and ANALYZE once per pass), so every metric samples the
// whole run rather than one stretch of it; four rounds make one pass over
// the pool. Loads get the largest share of the budget: their rate is the
// noisiest end-to-end figure of this workload.

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/output/formatter.h"
#include "dbsynth/query_generator.h"
#include "dbsynth/schema_translator.h"
#include "minidb/database.h"
#include "minidb/sql.h"
#include "minidb/stats.h"
#include "src/bench.h"
#include "src/stats.h"
#include "util/hash.h"

namespace perfbench {

namespace {

constexpr char kScaleFactor[] = "0.05";

double SecondsSince(int64_t t0) {
  return static_cast<double>(NowNanos() - t0) / 1e9;
}

std::string ExpectedQueriesPath(const RunContext& ctx) {
  return ctx.expected_dir + "/queries_tpch_sf0.05.txt";
}

minidb::EngineConfig PagedEngine(const std::string& dir) {
  minidb::EngineConfig config;
  config.kind = minidb::EngineKind::kPaged;
  config.data_dir = dir;
  return config;
}

}  // namespace

std::vector<std::string> QueryPool(const pdgf::GenerationSession& session) {
  dbsynth::QueryGenerator generator(&session);
  return generator.Workload(kQueryPoolSize);
}

std::string ResultFingerprint(const minidb::ResultSet& result) {
  pdgf::ByteStreamHash hash;
  for (const std::string& column : result.columns) {
    hash.Update(column);
    hash.Update("\x1f");
  }
  for (const minidb::Row& row : result.rows) {
    hash.Update("\x1e");
    for (const pdgf::Value& value : row) {
      hash.Update(value.ToText());
      hash.Update(value.is_null() ? "\x1d" : "\x1f");
    }
  }
  return hash.Finish().Hex().substr(0, 16) + ":" +
         std::to_string(result.rows.size());
}

std::string QueryShape(const minidb::SelectStatement& select,
                       const minidb::TableSchema* schema) {
  if (schema != nullptr) {
    const int pk = minidb::Table::IndexableKeyColumn(*schema);
    for (const minidb::Condition& condition : select.conditions) {
      if (condition.op == minidb::Condition::Op::kEq && pk >= 0 &&
          schema->FindColumn(condition.column) == pk) {
        return "pk_point";
      }
    }
  }
  if (!select.group_by.empty()) return "group_by";
  for (const minidb::SelectItem& item : select.items) {
    if (item.aggregate != minidb::AggregateFunction::kNone || item.count_star) {
      return "aggregate";
    }
  }
  if (!select.order_by.empty()) return "order_limit";
  if (!select.conditions.empty()) return "filter";
  return "project";
}

namespace {

constexpr int kRoundsPerPass = 4;
constexpr int kSetupSamples = 100;
// Independent client threads, each with its own database. Pooling their
// samples averages over the CPUs: on a shared host one CPU's speed moves
// by tens of percent from second to second.
constexpr int kClients = 4;

// Read-only inputs shared by the clients. The session is immutable and
// thread-safe.
struct Inputs {
  std::unique_ptr<Model> model;
  uint64_t expected_rows = 0;
  double csv_bytes = 0;
  std::vector<std::string> pool;
  std::map<std::string, std::string> expected;
};

// One client: rounds of loads, a quarter of the query pool, a slice of
// the point mix, and ANALYZE once per pass, against its own paged
// database.
class LoadQueryClient {
 public:
  LoadQueryClient(const RunContext& ctx, const Inputs& inputs, int client,
                  Report* report)
      : ctx_(ctx),
        inputs_(inputs),
        client_(client),
        work_dir_(ctx.work_dir + "/c" + std::to_string(client)),
        report_(report),
        tracer_(ctx.tracer),
        tag_("load_query_paged"),
        rng_(ctx.seed * 0x9e3779b97f4a7c15ULL + 17 +
             static_cast<uint64_t>(client) * 0xd1b54a32d192ed03ULL) {}

  void Run(double seconds);

  std::vector<double> load_s;
  std::vector<double> analyze_s;
  std::vector<double> query_ms;
  std::map<std::string, std::string> recorded;
  double space_amp = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  double read_seconds = 0;
  double write_seconds = 0;

 private:
  bool Load();
  void Analyze();
  void Queries(int round);
  void Points(double budget);
  // Span request ids are unique across clients.
  uint64_t NextId() { return (static_cast<uint64_t>(client_) << 32) | ++ids_; }

  const RunContext& ctx_;
  const Inputs& inputs_;
  const int client_;
  const std::string work_dir_;
  Report* report_;
  Tracer* tracer_;
  const std::string tag_;
  Rng rng_;
  uint64_t ids_ = 0;
  std::vector<size_t> order_;  // this pass's query order
  std::unique_ptr<minidb::Database> db_;
  std::string db_dir_;
};

void LoadQueryClient::Run(double seconds) {
  std::filesystem::create_directories(work_dir_);
  const int64_t start = NowNanos();
  // Whole passes only; another pass starts if it is predicted to fit.
  for (int round = 0;; ++round) {
    if (round > 0 && round % kRoundsPerPass == 0) {
      const int passes = round / kRoundsPerPass;
      if (ctx_.record ||
          SecondsSince(start) * (passes + 1) / passes > seconds) {
        break;
      }
    }
    const int64_t loads = NowNanos();
    do {
      if (!Load()) return;
    } while (SecondsSince(loads) < 0.4 * seconds / kRoundsPerPass);
    if (round % kRoundsPerPass == 0) Analyze();
    Queries(round);
    Points(0.03 * seconds);
  }
  db_.reset();
  std::filesystem::remove_all(work_dir_);
}

// CreateTargetSchema, FastLoadGeneratedData and CheckpointAll into a
// fresh database; the round's last one is the database it queries.
bool LoadQueryClient::Load() {
  db_.reset();
  if (!db_dir_.empty()) std::filesystem::remove_all(db_dir_);
  db_dir_ = work_dir_ + "/db" + std::to_string(load_s.size());
  db_ = std::make_unique<minidb::Database>(PagedEngine(db_dir_));
  const uint64_t id = NextId();
  const int tid = client_ + 1;
  ScopedSpan load_span(tracer_, "bench", "load", 0, id, tid);
  const int64_t t0 = NowNanos();
  {
    ScopedSpan span(tracer_, "dbsynth", "CreateTargetSchema", load_span.id(),
                    id, tid);
    if (!report_->CheckStatus(
            dbsynth::CreateTargetSchema(inputs_.model->schema, db_.get()),
            tag_ + ": CreateTargetSchema")) {
      return false;
    }
  }
  pdgf::StatusOr<uint64_t> loaded = pdgf::Status::Ok();
  {
    ScopedSpan span(tracer_, "dbsynth", "FastLoadGeneratedData", load_span.id(),
                    id, tid);
    loaded = dbsynth::FastLoadGeneratedData(*inputs_.model->session, db_.get());
  }
  pdgf::Status checkpoint = pdgf::Status::Ok();
  {
    ScopedSpan span(tracer_, "minidb.storage", "CheckpointAll", load_span.id(),
                    id, tid);
    checkpoint = db_->CheckpointAll();
  }
  const double elapsed = SecondsSince(t0);
  if (!report_->CheckStatus(loaded.status(),
                            tag_ + ": FastLoadGeneratedData") ||
      !report_->CheckStatus(checkpoint, tag_ + ": CheckpointAll")) {
    return false;
  }
  report_->Check(*loaded == inputs_.expected_rows,
                 tag_ + ": loaded " + std::to_string(*loaded) + " rows, want " +
                     std::to_string(inputs_.expected_rows));
  load_s.push_back(elapsed);
  space_amp = static_cast<double>(TreeBytes(db_dir_, ".pages") +
                                  TreeBytes(db_dir_, ".wal")) /
              inputs_.csv_bytes;
  return true;
}

// ANALYZE every table once.
void LoadQueryClient::Analyze() {
  const int64_t t0 = NowNanos();
  for (const std::string& name : TableNames(inputs_.model->schema)) {
    const minidb::Table* table = db_->GetTable(name);
    minidb::TableStats stats;
    {
      ScopedSpan span(tracer_, "minidb.stats", "AnalyzeTable", 0, 0,
                      client_ + 1);
      stats = minidb::AnalyzeTable(*table);
    }
    report_->Check(stats.row_count == table->row_count(),
                   tag_ + ": ANALYZE " + name + " row count");
  }
  analyze_s.push_back(SecondsSince(t0));
}

// The round's quarter of this pass over the query pool; each pass runs
// every query once in its own seeded order.
void LoadQueryClient::Queries(int round) {
  const std::vector<std::string>& pool = inputs_.pool;
  if (round % kRoundsPerPass == 0) {
    order_.resize(pool.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.Uniform(0, i - 1)]);
    }
  }
  const size_t part = static_cast<size_t>(round % kRoundsPerPass);
  const size_t begin = order_.size() * part / kRoundsPerPass;
  const size_t end = order_.size() * (part + 1) / kRoundsPerPass;
  const int tid = client_ + 1;
  for (size_t i = begin; i < end; ++i) {
    const size_t index = order_[i];
    const uint64_t id = NextId();
    ScopedSpan query_span(tracer_, "bench", "query", 0, id, tid);
    const int64_t t0 = NowNanos();
    pdgf::StatusOr<minidb::ResultSet> result = pdgf::Status::Ok();
    {
      ScopedSpan span(tracer_, "minidb.sql", "ExecuteSql", query_span.id(),
                      id, tid);
      result = minidb::ExecuteSql(db_.get(), pool[index]);
    }
    query_ms.push_back(static_cast<double>(NowNanos() - t0) / 1e6);
    ScopedSpan check(tracer_, "bench", "check.fingerprint", query_span.id(), id,
                     tid);
    if (!report_->CheckStatus(result.status(),
                              tag_ + ": query " + pool[index])) {
      continue;
    }
    const std::string key = std::to_string(index);
    const std::string fingerprint = ResultFingerprint(*result);
    if (ctx_.record) {
      recorded[key] = fingerprint;
    } else {
      auto want = inputs_.expected.find(key);
      const std::string expected =
          want == inputs_.expected.end() ? "(none)" : want->second;
      report_->Check(fingerprint == expected,
                     tag_ + ": query " + key + " fingerprint " + fingerprint +
                         " != recorded " + expected);
    }
  }
}

// PK SELECTs and PK UPDATEs on orders and customer for `budget` seconds.
// Each UPDATE must affect one row and read back through a PK SELECT.
void LoadQueryClient::Points(double budget) {
  struct PointTable {
    const char* name;
    const char* key;
    const char* text;
  };
  static const PointTable kTargets[2] = {
      {"orders", "o_orderkey", "o_comment"},
      {"customer", "c_custkey", "c_comment"}};
  const int tid = client_ + 1;
  const int64_t start = NowNanos();
  for (int n = 0; n < 10 || SecondsSince(start) < budget; ++n) {
    const PointTable& target = kTargets[rng_.Uniform(0, 1)];
    const uint64_t key =
        rng_.Uniform(1, db_->GetTable(target.name)->row_count());
    const bool write = rng_.Chance(0.5);
    const uint64_t id = NextId();
    const std::string where =
        std::string(" WHERE ") + target.key + " = " + std::to_string(key);
    ScopedSpan op_span(tracer_, "bench",
                       write ? "point.update" : "point.select", 0, id, tid);
    if (!write) {
      const std::string sql =
          std::string("SELECT * FROM ") + target.name + where;
      const int64_t t0 = NowNanos();
      pdgf::StatusOr<minidb::ResultSet> result = pdgf::Status::Ok();
      {
        ScopedSpan span(tracer_, "minidb.sql", "ExecuteSql", op_span.id(), id,
                        tid);
        result = minidb::ExecuteSql(db_.get(), sql);
      }
      read_seconds += SecondsSince(t0);
      ++reads;
      if (report_->CheckStatus(result.status(), tag_ + ": " + sql)) {
        report_->Check(result->rows.size() == 1 &&
                           result->At(0, target.key).AsInt() ==
                               static_cast<int64_t>(key),
                       tag_ + ": " + sql + " returns the keyed row");
      }
      continue;
    }
    const std::string text = "pb" + std::to_string(ctx_.seed) + "_" +
                             std::to_string(client_) + "_" + std::to_string(n);
    const std::string sql = std::string("UPDATE ") + target.name + " SET " +
                            target.text + " = '" + text + "'" + where;
    const int64_t t0 = NowNanos();
    pdgf::StatusOr<minidb::ResultSet> result = pdgf::Status::Ok();
    {
      ScopedSpan span(tracer_, "minidb.sql", "ExecuteSql", op_span.id(), id,
                      tid);
      result = minidb::ExecuteSql(db_.get(), sql);
    }
    write_seconds += SecondsSince(t0);
    ++writes;
    ScopedSpan check(tracer_, "bench", "check.read_back", op_span.id(), id,
                     tid);
    if (!report_->CheckStatus(result.status(), tag_ + ": " + sql)) continue;
    report_->Check(result->affected_rows == 1,
                   tag_ + ": " + sql + " affects one row");
    auto back = minidb::ExecuteSql(
        db_.get(),
        std::string("SELECT ") + target.text + " FROM " + target.name + where);
    if (report_->CheckStatus(back.status(), tag_ + ": read back")) {
      report_->Check(
          back->rows.size() == 1 && back->rows[0][0].ToText() == text,
                     tag_ + ": " + sql + " reads back");
    }
  }
}

// Set-up samples, taken before the clients start: model build + session
// + target schema in a fresh database.
bool SetupSamples(const RunContext& ctx, const Inputs& inputs,
                  std::vector<double>* samples, Report* report) {
  for (int i = 0; i < kSetupSamples; ++i) {
    const std::string dir = ctx.work_dir + "/setup" + std::to_string(i);
    const int64_t t0 = NowNanos();
    {
      ScopedSpan span(ctx.tracer, "core.session", "BuildTpchModel");
      auto built = BuildTpchModel(kScaleFactor);
      if (!report->CheckStatus(built.status(), "load_query_paged: session")) {
        return false;
      }
    }
    {
      minidb::Database db(PagedEngine(dir));
      ScopedSpan span(ctx.tracer, "dbsynth", "CreateTargetSchema");
      if (!report->CheckStatus(
              dbsynth::CreateTargetSchema(inputs.model->schema, &db),
              "load_query_paged: CreateTargetSchema")) {
        return false;
      }
      samples->push_back(SecondsSince(t0));
    }
    std::filesystem::remove_all(dir);
  }
  return true;
}

bool Prepare(const RunContext& ctx, Inputs* inputs, Report* report) {
  auto built = BuildTpchModel(kScaleFactor);
  if (!report->CheckStatus(built.status(), "load_query_paged: session")) {
    return false;
  }
  inputs->model = std::move(built).value();
  const pdgf::GenerationSession& session = *inputs->model->session;
  for (size_t t = 0; t < inputs->model->schema.tables.size(); ++t) {
    inputs->expected_rows += session.TableRows(static_cast<int>(t));
  }
  // CSV bytes of the same rows: the denominator of space_amp and the
  // data volume behind work_mb_s.
  pdgf::CsvFormatter csv;
  pdgf::GenerationOptions options;
  options.worker_count = 1;
  auto stats = pdgf::GenerateToNull(session, csv, options);
  if (!report->CheckStatus(stats.status(),
                           "load_query_paged: GenerateToNull")) {
    return false;
  }
  inputs->csv_bytes = static_cast<double>(stats->bytes);
  inputs->pool = QueryPool(session);
  inputs->expected = ReadExpected(ExpectedQueriesPath(ctx));
  if (!ctx.record) {
    report->Check(inputs->expected.size() == inputs->pool.size(),
                  "load_query_paged: expected fingerprints recorded for the "
                  "query pool (" + ExpectedQueriesPath(ctx) + ")");
  }
  return true;
}

}  // namespace

void RunLoadQuery(const RunContext& ctx, double seconds, Report* report) {
  Inputs inputs;
  std::vector<double> setup_s;
  if (!Prepare(ctx, &inputs, report) ||
      !SetupSamples(ctx, inputs, &setup_s, report)) {
    return;
  }
  // Recording needs one result per query, so it runs one client.
  const int clients = ctx.record ? 1 : kClients;
  std::vector<std::unique_ptr<LoadQueryClient>> runs;
  for (int c = 0; c < clients; ++c) {
    runs.push_back(std::make_unique<LoadQueryClient>(ctx, inputs, c, report));
  }
  std::vector<std::thread> threads;
  for (auto& run : runs) {
    threads.emplace_back([&run, seconds] { run->Run(seconds); });
  }
  for (std::thread& thread : threads) thread.join();

  if (ctx.record) {
    report->Check(WriteExpected(ExpectedQueriesPath(ctx), runs[0]->recorded,
                                "query-pool index, result fingerprint:rows "
                                "(TPC-H SF 0.05, QueryGenerator default seed)"),
                  "load_query_paged: write expected fingerprints");
  }
  // Samples of every client are pooled.
  std::vector<double> load_rows_s, load_mb_s, analyze_s, query_ms;
  uint64_t reads = 0, writes = 0;
  double read_seconds = 0, write_seconds = 0;
  for (const auto& run : runs) {
    for (double s : run->load_s) {
      load_rows_s.push_back(static_cast<double>(inputs.expected_rows) / s);
      load_mb_s.push_back(inputs.csv_bytes / 1e6 / s);
    }
    analyze_s.insert(analyze_s.end(), run->analyze_s.begin(),
                     run->analyze_s.end());
    query_ms.insert(query_ms.end(), run->query_ms.begin(), run->query_ms.end());
    reads += run->reads;
    writes += run->writes;
    read_seconds += run->read_seconds;
    write_seconds += run->write_seconds;
  }
  report->Set("setup_s", Median(setup_s), "s", setup_s.size());
  report->Set("load_rows_s", Median(load_rows_s), "rows/s", load_rows_s.size());
  report->Set("work_mb_s", Median(load_mb_s), "MB/s", load_mb_s.size());
  report->Set("space_amp", runs[0]->space_amp, "ratio");
  report->Set("analyze_s", Median(analyze_s), "s", analyze_s.size());
  double query_total = 0;
  for (double ms : query_ms) query_total += ms / 1e3;
  const double qps = static_cast<double>(query_ms.size()) / query_total;
  report->Set("query_qps", qps, "queries/s", query_ms.size());
  report->Set("ops_s", qps, "1/s", query_ms.size());
  report->Set("op_p50_ms", Median(query_ms), "ms", query_ms.size());
  report->Set("query_p95_ms", Percentile(query_ms, 95), "ms", query_ms.size());
  report->Set("op_tail_ms", Percentile(query_ms, 95), "ms", query_ms.size());
  report->Set("point_read_qps", static_cast<double>(reads) / read_seconds,
              "ops/s", reads);
  report->Set("point_write_qps", static_cast<double>(writes) / write_seconds,
              "ops/s", writes);
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  std::filesystem::remove_all(ctx.work_dir);
}

}  // namespace perfbench
