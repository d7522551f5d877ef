#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

// Deterministic 64-bit generator (splitmix64). Workload inputs are drawn
// from it so a seed names the same inputs on every libstdc++ version.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [lo, hi] (inclusive); requires lo <= hi.
  uint64_t Uniform(uint64_t lo, uint64_t hi);
  // True with probability `p`.
  bool Chance(double p);

 private:
  uint64_t state_;
};

// Quartiles of `values` by the "exclusive" method, the default of
// Python's statistics.quantiles(values, n=4). With fewer than two values
// every quartile is that value (or 0 for none).
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
Quartiles ComputeQuartiles(std::vector<double> values);

double Median(std::vector<double> values);

// Linear-interpolated percentile, `p` in [0, 100].
double Percentile(std::vector<double> values, double p);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
