// Unit tests of the benchmark's own logic: quartiles, span self time and
// the comparer's verdicts. Plain asserts that stay on in every build.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/compare.h"
#include "src/json.h"
#include "src/stats.h"
#include "src/trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestQuartilesMatchPython() {
  using perfbench::ComputeQuartiles;
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  auto q = ComputeQuartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT(Near(q.q1, 2.75) && Near(q.median, 5.5) && Near(q.q3, 8.25));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = ComputeQuartiles({1, 2});
  EXPECT(Near(q.q1, 0.75) && Near(q.median, 1.5) && Near(q.q3, 2.25));
  // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
  q = ComputeQuartiles({3, 1, 2});
  EXPECT(Near(q.q1, 1.0) && Near(q.median, 2.0) && Near(q.q3, 3.0));
  q = ComputeQuartiles({4});
  EXPECT(Near(q.q1, 4) && Near(q.q3, 4));
}

void TestPercentileAndMedian() {
  std::vector<double> values;
  for (int i = 1; i <= 101; ++i) values.push_back(i);
  EXPECT(Near(perfbench::Percentile(values, 50), 51));
  EXPECT(Near(perfbench::Percentile(values, 99), 100));
  EXPECT(Near(perfbench::Percentile(values, 0), 1));
  EXPECT(Near(perfbench::Percentile({1, 2}, 50), 1.5));
  EXPECT(Near(perfbench::Median({5, 1, 3, 2}), 2.5));
  EXPECT(Near(perfbench::Median({}), 0));
}

perfbench::Span MakeSpan(uint64_t id, uint64_t parent, int64_t start,
                         int64_t end, const char* layer) {
  perfbench::Span span;
  span.id = id;
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = end;
  span.layer = layer;
  span.name = layer;
  return span;
}

void TestSelfTime() {
  // Parent [0, 100); children [10, 30) and [20, 50) overlap (two threads)
  // and cover [10, 50); a grandchild does not count against the root.
  std::vector<perfbench::Span> spans = {
      MakeSpan(1, 0, 0, 100, "bench"),
      MakeSpan(2, 1, 10, 30, "minidb.sql"),
      MakeSpan(3, 1, 20, 50, "minidb.sql"),
      MakeSpan(4, 2, 12, 18, "minidb.storage"),
      MakeSpan(5, 1, 90, 120, "serve")};  // clipped to the parent's end
  const std::vector<int64_t> self = perfbench::SelfTimes(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 6);
  EXPECT(self[4] == 30);
  const auto by_layer = perfbench::SelfSecondsByLayer(spans);
  EXPECT(Near(by_layer.at("minidb.sql"), 44e-9));
  // An open span has no self time and does not crash the walk.
  spans.push_back(MakeSpan(6, 1, 60, -1, "serve"));
  EXPECT(perfbench::SelfTimes(spans)[5] == 0);
  const std::string json = perfbench::ChromeTraceJson(spans);
  EXPECT(perfbench::ParseJson(json).has_value());
  EXPECT(json.find("\"ph\":\"X\"") != std::string::npos);
}

void TestTracerRecords() {
  perfbench::Tracer off(false);
  { perfbench::ScopedSpan span(&off, "bench", "x"); EXPECT(span.id() == 0); }
  EXPECT(off.spans().empty());
  perfbench::Tracer on(true);
  {
    perfbench::ScopedSpan outer(&on, "bench", "outer", 0, 7);
    perfbench::ScopedSpan inner(&on, "minidb.sql", "ExecuteSql", outer.id(), 7);
  }
  const auto spans = on.spans();
  EXPECT(spans.size() == 2 && spans[1].parent == spans[0].id);
  EXPECT(spans[0].end_ns >= spans[1].end_ns && spans[1].request == 7);
}

perfbench::JsonValue Parse(const std::string& text) {
  auto value = perfbench::ParseJson(text);
  if (!value) {
    std::fprintf(stderr, "unparseable: %s\n", text.c_str());
    std::exit(1);
  }
  return *value;
}

void TestCompare() {
  const auto spec = perfbench::ParseBenchmarkSpec(Parse(
      R"({"end_to_end":[{"name":"lat","unit":"ms","better":"lower","bound":0.1},
                        {"name":"rate","unit":"1/s","better":"higher","bound":0.1}],
          "per_layer":[{"name":"minidb.sql.parse_us","unit":"us","better":"lower"}]})"));
  EXPECT(spec.size() == 3 && spec[0].end_to_end && !spec[2].end_to_end);
  perfbench::Samples base;
  perfbench::Samples cand;
  for (int i = 0; i < 10; ++i) {
    const double jitter = (i % 3) * 0.1;
    perfbench::AddReport(
        Parse(R"({"workload":"w","metrics":{"lat":{"value":)" +
              std::to_string(10 + jitter) + R"(},"rate":{"value":)" +
              std::to_string(100 + jitter) +
              R"(},"minidb.sql.parse_us":{"value":)" + std::to_string(5 + jitter) +
              "}}}"),
        &base);
    // lat +5% (inside the 10% bound), rate -20% (worse), parse +50%.
    perfbench::AddReport(
        Parse(R"({"workload":"w","metrics":{"lat":{"value":)" +
              std::to_string(10.5 + jitter) + R"(},"rate":{"value":)" +
              std::to_string(80 + jitter) +
              R"(},"minidb.sql.parse_us":{"value":)" + std::to_string(7.5 + jitter) +
              "}}}"),
        &cand);
  }
  const auto result = perfbench::Compare(spec, base, cand);
  EXPECT(result.size() == 3);
  EXPECT(result[0].verdict == perfbench::Comparison::Verdict::kSame);
  EXPECT(result[1].verdict == perfbench::Comparison::Verdict::kWorse);
  EXPECT(result[2].verdict == perfbench::Comparison::Verdict::kWorse);
  EXPECT(result[2].layer == "minidb.sql");
  EXPECT(perfbench::FormatComparisons(result).find(
             "WORSE (layer minidb.sql)") != std::string::npos);
  // A per-layer move inside the base's own spread is not flagged.
  perfbench::Samples noisy;
  perfbench::Samples wide;
  for (double v : {4.0, 6.0, 5.0, 4.5, 5.5}) {
    wide["w"]["minidb.sql.parse_us"].push_back(v);
  }
  noisy["w"]["minidb.sql.parse_us"] = {5.4, 5.5, 5.6};
  const auto quiet = perfbench::Compare({spec[2]}, wide, noisy);
  EXPECT(quiet.size() == 1 &&
         quiet[0].verdict == perfbench::Comparison::Verdict::kSame);
  // A measured metric BENCHMARK.json does not list is compared as a
  // detail metric, without a direction.
  perfbench::Samples detail_base = wide;
  perfbench::Samples detail_cand;
  detail_base["w"]["query_qps"] = {100, 101, 99, 100, 100};
  detail_cand["w"]["query_qps"] = {150, 151, 149};
  detail_cand["w"]["minidb.sql.parse_us"] = {5.0, 5.1, 4.9};
  const auto detail = perfbench::Compare({spec[2]}, detail_base, detail_cand);
  EXPECT(detail.size() == 2 && !detail[1].listed &&
         detail[1].verdict == perfbench::Comparison::Verdict::kChanged);
  // Missing on one side.
  perfbench::Samples empty;
  EXPECT(perfbench::Compare(spec, base, empty)[0].verdict ==
         perfbench::Comparison::Verdict::kMissing);
  EXPECT(perfbench::LayerOf("core.cursor.ns_per_row.part") == "core.cursor");
  EXPECT(perfbench::LayerOf("minidb.scan_ns_per_row") == "minidb");
  EXPECT(perfbench::LayerOf("trace.self_s.minidb.sql") == "minidb.sql");
}

void TestJson() {
  auto value = perfbench::ParseJson(
      R"({"a":[1,-2.5e3,"x\n\"y"],"b":{"c":true,"d":null}})");
  EXPECT(value.has_value());
  EXPECT(value->Find("a")->array[1].number == -2500);
  EXPECT(value->Find("a")->array[2].string == "x\n\"y");
  EXPECT(value->Find("b")->Find("c")->boolean);
  EXPECT(!perfbench::ParseJson("{\"a\":1} x").has_value());
  EXPECT(!perfbench::ParseJson("{\"a\":1,\"a\":2}").has_value());
  EXPECT(perfbench::JsonNumber(0.1) == "0.1");
  EXPECT(perfbench::ParseJson(perfbench::JsonQuote("tab\there"))
             .value()
             .string == "tab\there");
}

void TestRngIsDeterministic() {
  perfbench::Rng a(42);
  perfbench::Rng b(42);
  for (int i = 0; i < 100; ++i) {
    const uint64_t x = a.Uniform(5, 9);
    EXPECT(x == b.Uniform(5, 9) && x >= 5 && x <= 9);
  }
}

}  // namespace

int main() {
  TestQuartilesMatchPython();
  TestPercentileAndMedian();
  TestSelfTime();
  TestTracerRecords();
  TestCompare();
  TestJson();
  TestRngIsDeterministic();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
