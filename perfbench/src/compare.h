#ifndef PERFBENCH_COMPARE_H_
#define PERFBENCH_COMPARE_H_

#include <map>
#include <string>
#include <vector>

#include "src/json.h"
#include "src/stats.h"

namespace perfbench {

// One metric of BENCHMARK.json.
struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0;  // end-to-end only: allowed worsening, share of median
  bool end_to_end = false;
};

// Reads the end_to_end and per_layer lists of a BENCHMARK.json document.
std::vector<MetricSpec> ParseBenchmarkSpec(const JsonValue& benchmark);

// workload -> metric -> values, one per run.
using Samples =
    std::map<std::string, std::map<std::string, std::vector<double>>>;

// Adds the metrics of one perfbench_run report line to `samples`.
void AddReport(const JsonValue& report, Samples* samples);

// The layer a metric belongs to: "trace.self_s.<layer>" names it
// directly; otherwise the first two dotted components of a name with
// three or more ("core.cursor.ns_per_row.part" -> "core.cursor"), else
// the first ("minidb.scan_ns_per_row" -> "minidb").
std::string LayerOf(const std::string& metric);

struct Comparison {
  // kChanged: a detail metric (measured but not listed in
  // BENCHMARK.json, so without a direction) moved beyond the spread.
  enum class Verdict { kSame, kBetter, kWorse, kChanged, kMissing };
  std::string workload;
  std::string metric;
  std::string layer;
  bool end_to_end = false;
  bool listed = true;  // false for detail metrics not in BENCHMARK.json
  Quartiles base;
  Quartiles candidate;
  size_t base_runs = 0;
  size_t candidate_runs = 0;
  // The change threshold applied, in metric units: bound x base median
  // for end-to-end metrics, the base's own quartile spread per layer.
  double threshold = 0;
  Verdict verdict = Verdict::kSame;
};

// End-to-end metrics are worse/better when the candidate median moves by
// more than the bound; per-layer metrics when it moves by more than the
// base's spread (q3 - q1) and leaves the base's quartile range. Metrics
// both sides measured that BENCHMARK.json does not list (the workload
// detail metrics of README.md) follow the per-layer rule and are
// reported as changed.
std::vector<Comparison> Compare(const std::vector<MetricSpec>& specs,
                                const Samples& base,
                                const Samples& candidate);

// Side-by-side text table; flagged rows are marked and name the layer.
std::string FormatComparisons(const std::vector<Comparison>& comparisons);

const char* VerdictName(Comparison::Verdict verdict);

}  // namespace perfbench

#endif  // PERFBENCH_COMPARE_H_
