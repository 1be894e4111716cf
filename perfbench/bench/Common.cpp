//===- Common.cpp - Shared helpers of the repository benchmark ------------===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <sys/resource.h>

namespace perfbench {

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  const double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

size_t countAbove(const std::vector<double> &Values, double Threshold) {
  return static_cast<size_t>(
      std::count_if(Values.begin(), Values.end(),
                    [Threshold](double V) { return V > Threshold; }));
}

uint64_t mixSeed(uint64_t Seed, uint64_t A, uint64_t B) {
  uint64_t X = Seed + 0x9E3779B97F4A7C15ULL * (A + 1) +
               0xD1B54A32D192ED03ULL * (B + 1);
  X ^= X >> 30;
  X *= 0xBF58476D1CE4E5B9ULL;
  X ^= X >> 27;
  X *= 0x94D049BB133111EBULL;
  X ^= X >> 31;
  return X;
}

namespace {
double cpuOf(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
}
double maxRssKb(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return static_cast<double>(U.ru_maxrss);
}
} // namespace

double cpuSeconds() { return cpuOf(RUSAGE_SELF) + cpuOf(RUSAGE_CHILDREN); }

double peakRssMb() {
  return (maxRssKb(RUSAGE_SELF) + maxRssKb(RUSAGE_CHILDREN)) / 1024.0;
}

} // namespace perfbench
