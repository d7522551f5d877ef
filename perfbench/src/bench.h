#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/schema.h"
#include "core/session.h"
#include "minidb/sql.h"
#include "src/trace.h"

namespace perfbench {

// One metric as reported: the value as measured, its unit and how many
// samples it summarizes.
struct MetricValue {
  double value = 0;
  std::string unit;
  uint64_t samples = 1;
};

// Metrics plus the correctness ledger of one run. Thread-safe: the serve
// workload checks replies from its client threads.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1);
  double Get(const std::string& name) const;
  std::map<std::string, MetricValue> metrics() const;

  // Counts one correctness check; a failed one is logged to stderr
  // (the first few) and counted in `failed`.
  void Check(bool ok, const std::string& what);
  // Counts a pdgf::Status outcome as one check.
  bool CheckStatus(const pdgf::Status& status, const std::string& what);

  // Adds `other`'s checks to this ledger and copies its metrics whose
  // names start with one of `prefixes` unless already present.
  void Absorb(const Report& other, const std::vector<std::string>& prefixes);

  uint64_t attempted() const;
  uint64_t failed() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, MetricValue> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct RunContext {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  std::string work_dir;      // scratch space for this run; removed after
  std::string expected_dir;  // recorded correctness values
  std::string dbsynthpp;     // the built CLI binary (serve daemon)
  bool record = false;       // write expected values instead of checking
  Tracer* tracer = nullptr;  // spans around every public call; may be off
};

// A TPC-H schema with a session resolved at one scale factor. Heap
// allocated: the session keeps a pointer to the schema.
struct Model {
  pdgf::SchemaDef schema;
  std::unique_ptr<pdgf::GenerationSession> session;
};
pdgf::StatusOr<std::unique_ptr<Model>> BuildTpchModel(const std::string& sf);

// The eight TPC-H tables in model order.
std::vector<std::string> TableNames(const pdgf::SchemaDef& schema);

// Workloads. Each fills the end-to-end metrics of BENCHMARK.json plus the
// detail metrics named in README.md; `seconds` is the measured budget.
void RunGenCsv(const RunContext& ctx, double seconds, Report* report);
void RunLoadQuery(const RunContext& ctx, double seconds, Report* report);
void RunServeRange(const RunContext& ctx, double seconds, Report* report);

// Isolation passes for the traced run: each layer's public function
// alone, on seeded inputs (README.md, "Per-layer metrics").
void RunLayerSuite(const RunContext& ctx, Report* report);

// serve_range with a minimum number of range requests; the layer suite
// runs a short one for the serve layer metrics.
void RunServeRangeMin(const RunContext& ctx, double seconds,
                      uint64_t min_ranges, Report* report);

// The SELECT mix of the load_query_paged workload: the first kQueryPoolSize
// queries of dbsynth::QueryGenerator with its default seed. The run seed
// picks their order; their result fingerprints are recorded.
inline constexpr uint64_t kQueryPoolSize = 512;
std::vector<std::string> QueryPool(const pdgf::GenerationSession& session);
// Hash of a result's columns and rows plus its row count.
std::string ResultFingerprint(const minidb::ResultSet& result);
// The statement's shape: pk_point (equality on the PK), group_by,
// aggregate, order_limit (ORDER BY, with or without LIMIT), filter
// (predicates), else project.
std::string QueryShape(const minidb::SelectStatement& select,
                       const minidb::TableSchema* schema);

// Shared serve helpers (serve_range.cc).
class Daemon {
 public:
  // Spawns `dbsynthpp serve --port 0 --port-file ...` and waits until
  // it answers a ping.
  static pdgf::StatusOr<std::unique_ptr<Daemon>> Spawn(
      const std::string& binary, const std::string& work_dir, int index);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  // Sends {"op":"shutdown"} and reaps the process (SIGKILL after 10 s).
  pdgf::Status Shutdown();

 private:
  Daemon() = default;
  pid_t pid_ = -1;
  int port_ = 0;
};

// Process figures from /proc: peak resident set (VmHWM) in MB and CPU
// seconds. `pid` 0 means this process.
double PeakRssMb(pid_t pid = 0);
void CpuSeconds(pid_t pid, double* user, double* sys);

// File helpers.
uint64_t FileBytes(const std::string& path);
uint64_t TreeBytes(const std::string& dir, const std::string& suffix = "");
std::string HashFileHex(const std::string& path);

// Reads "key value..." lines of an expected-values file; empty map when
// absent.
std::map<std::string, std::string> ReadExpected(const std::string& path);
bool WriteExpected(const std::string& path,
                   const std::map<std::string, std::string>& values,
                   const std::string& header);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
