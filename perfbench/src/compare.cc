#include "src/compare.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

std::vector<MetricSpec> ParseBenchmarkSpec(const JsonValue& benchmark) {
  std::vector<MetricSpec> specs;
  for (const char* list : {"end_to_end", "per_layer"}) {
    const JsonValue* entries = benchmark.Find(list);
    if (entries == nullptr || entries->type != JsonValue::Type::kArray) {
      continue;
    }
    for (const JsonValue& entry : entries->array) {
      MetricSpec spec;
      spec.name = entry.StringOr("name", "");
      spec.unit = entry.StringOr("unit", "");
      spec.higher_is_better = entry.StringOr("better", "lower") == "higher";
      spec.bound = entry.NumberOr("bound", 0);
      spec.end_to_end = std::string(list) == "end_to_end";
      if (!spec.name.empty()) specs.push_back(spec);
    }
  }
  return specs;
}

void AddReport(const JsonValue& report, Samples* samples) {
  const std::string workload = report.StringOr("workload", "");
  const JsonValue* metrics = report.Find("metrics");
  if (workload.empty() || metrics == nullptr) return;
  for (const auto& [name, metric] : metrics->object) {
    const JsonValue* value = metric.Find("value");
    if (value != nullptr && value->type == JsonValue::Type::kNumber) {
      (*samples)[workload][name].push_back(value->number);
    } else if (metric.type == JsonValue::Type::kNumber) {
      (*samples)[workload][name].push_back(metric.number);
    }
  }
}

std::string LayerOf(const std::string& metric) {
  const std::string self = "trace.self_s.";
  if (metric.compare(0, self.size(), self) == 0) {
    return metric.substr(self.size());
  }
  const size_t first = metric.find('.');
  if (first == std::string::npos) return metric;
  const size_t second = metric.find('.', first + 1);
  if (second == std::string::npos) return metric.substr(0, first);
  return metric.substr(0, second);
}

namespace {

const std::vector<double>* Find(const Samples& samples,
                                const std::string& workload,
                                const std::string& metric) {
  auto w = samples.find(workload);
  if (w == samples.end()) return nullptr;
  auto m = w->second.find(metric);
  return m == w->second.end() ? nullptr : &m->second;
}

Comparison CompareOne(const std::string& workload, const MetricSpec& spec,
                      bool listed, const std::vector<double>* base_values,
                      const std::vector<double>* candidate_values) {
  Comparison c;
  c.workload = workload;
  c.metric = spec.name;
  c.layer = spec.end_to_end ? "" : LayerOf(spec.name);
  c.end_to_end = spec.end_to_end;
  c.listed = listed;
  if (base_values == nullptr || candidate_values == nullptr) {
    c.verdict = Comparison::Verdict::kMissing;
    return c;
  }
  c.base = ComputeQuartiles(*base_values);
  c.candidate = ComputeQuartiles(*candidate_values);
  c.base_runs = base_values->size();
  c.candidate_runs = candidate_values->size();
  const double delta = c.candidate.median - c.base.median;
  bool moved = false;
  if (spec.end_to_end) {
    c.threshold = spec.bound * std::fabs(c.base.median);
    moved = std::fabs(delta) > c.threshold;
  } else {
    c.threshold = c.base.q3 - c.base.q1;
    moved = std::fabs(delta) > c.threshold &&
            (c.candidate.median < c.base.q1 || c.candidate.median > c.base.q3);
  }
  if (moved && !listed) {
    c.verdict = Comparison::Verdict::kChanged;
  } else if (moved) {
    c.verdict = (delta > 0) == spec.higher_is_better
                    ? Comparison::Verdict::kBetter
                    : Comparison::Verdict::kWorse;
  }
  return c;
}

}  // namespace

std::vector<Comparison> Compare(const std::vector<MetricSpec>& specs,
                                const Samples& base,
                                const Samples& candidate) {
  std::vector<Comparison> out;
  std::map<std::string, bool> workloads;
  for (const auto& [workload, metrics] : base) workloads[workload] = true;
  for (const auto& [workload, metrics] : candidate) workloads[workload] = true;
  std::map<std::string, bool> listed;
  for (const MetricSpec& spec : specs) listed[spec.name] = true;
  for (const auto& [workload, unused] : workloads) {
    for (const MetricSpec& spec : specs) {
      const auto* b = Find(base, workload, spec.name);
      const auto* c = Find(candidate, workload, spec.name);
      if (b == nullptr && c == nullptr) continue;
      out.push_back(CompareOne(workload, spec, true, b, c));
    }
    auto w = base.find(workload);
    if (w == base.end()) continue;
    for (const auto& [metric, values] : w->second) {
      const auto* c = Find(candidate, workload, metric);
      if (listed.count(metric) != 0 || c == nullptr) continue;
      MetricSpec detail;
      detail.name = metric;
      out.push_back(CompareOne(workload, detail, false, &values, c));
    }
  }
  return out;
}

const char* VerdictName(Comparison::Verdict verdict) {
  switch (verdict) {
    case Comparison::Verdict::kSame: return "same";
    case Comparison::Verdict::kBetter: return "BETTER";
    case Comparison::Verdict::kWorse: return "WORSE";
    case Comparison::Verdict::kChanged: return "CHANGED";
    case Comparison::Verdict::kMissing: return "missing";
  }
  return "?";
}

std::string FormatComparisons(const std::vector<Comparison>& comparisons) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line), "%-18s %-38s %-9s %33s   %33s  %s\n",
                "workload", "metric", "kind", "base q1 / median / q3 (n)",
                "candidate q1 / median / q3 (n)", "verdict");
  out += line;
  for (const Comparison& c : comparisons) {
    std::string verdict = VerdictName(c.verdict);
    if (!c.end_to_end && c.listed &&
        (c.verdict == Comparison::Verdict::kWorse ||
         c.verdict == Comparison::Verdict::kBetter)) {
      verdict += " (layer " + c.layer + ")";
    }
    std::snprintf(line, sizeof(line),
                  "%-18s %-38s %-9s %10.4g %10.4g %10.4g (%zu)   "
                  "%10.4g %10.4g %10.4g (%zu)  %s\n",
                  c.workload.c_str(), c.metric.c_str(),
                  c.end_to_end ? "e2e" : c.listed ? "layer" : "detail",
                  c.base.q1, c.base.median,
                  c.base.q3, c.base_runs, c.candidate.q1, c.candidate.median,
                  c.candidate.q3, c.candidate_runs, verdict.c_str());
    out += line;
  }
  return out;
}

}  // namespace perfbench
