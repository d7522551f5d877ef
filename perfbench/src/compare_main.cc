// perfbench_compare: compares two sets of perfbench results.
//
//   perfbench_compare BENCHMARK.json BASE.jsonl CANDIDATE.jsonl
//
// Each .jsonl file holds one perfbench_run report per line (run.py
// --save appends them). Prints every workload x metric as quartiles side
// by side, flags end-to-end changes beyond BENCHMARK.json's bounds and
// per-layer changes beyond the base's measured spread, naming the layer.
// Exits 1 when an end-to-end metric got worse, 2 on bad input.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/compare.h"
#include "src/json.h"

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool LoadResults(const std::string& path, perfbench::Samples* samples) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::cerr << "perfbench_compare: cannot read " << path << "\n";
    return false;
  }
  std::istringstream lines(text);
  std::string line;
  int number = 0;
  while (std::getline(lines, line)) {
    ++number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string error;
    auto report = perfbench::ParseJson(line, &error);
    if (!report) {
      std::cerr << "perfbench_compare: " << path << ":" << number << ": "
                << error << "\n";
      return false;
    }
    perfbench::AddReport(*report, samples);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: perfbench_compare BENCHMARK.json BASE.jsonl "
                 "CANDIDATE.jsonl\n";
    return 2;
  }
  std::string text;
  std::string error;
  if (!ReadFile(argv[1], &text)) {
    std::cerr << "perfbench_compare: cannot read " << argv[1] << "\n";
    return 2;
  }
  auto benchmark = perfbench::ParseJson(text, &error);
  if (!benchmark) {
    std::cerr << "perfbench_compare: " << argv[1] << ": " << error << "\n";
    return 2;
  }
  perfbench::Samples base;
  perfbench::Samples candidate;
  if (!LoadResults(argv[2], &base) || !LoadResults(argv[3], &candidate)) {
    return 2;
  }
  const auto comparisons = perfbench::Compare(
      perfbench::ParseBenchmarkSpec(*benchmark), base, candidate);
  std::cout << perfbench::FormatComparisons(comparisons);
  for (const auto& c : comparisons) {
    if (c.end_to_end && c.verdict == perfbench::Comparison::Verdict::kWorse) {
      return 1;
    }
  }
  return 0;
}
