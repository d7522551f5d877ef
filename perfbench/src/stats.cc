#include "src/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rng::Uniform(uint64_t lo, uint64_t hi) {
  const uint64_t span = hi - lo + 1;
  return span == 0 ? Next() : lo + Next() % span;
}

bool Rng::Chance(double p) {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 1) {
    q.q1 = q.median = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1; for i in 1..3,
  // j = i*m // 4, delta = i*m - j*4, value = (x[j-1]*(4-delta) +
  // x[j]*delta) / 4.
  // j is clamped into [1, n-1] before delta is taken, as Python does.
  const int64_t m = static_cast<int64_t>(n) + 1;
  const int64_t last = static_cast<int64_t>(n) - 1;
  double out[3];
  for (int64_t i = 1; i <= 3; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, last);
    const int64_t delta = i * m - j * 4;
    out[i - 1] = (values[static_cast<size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.median = out[1];
  q.q3 = out[2];
  return q;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
