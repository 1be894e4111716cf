//===- Common.h - Shared helpers of the repository benchmark ----*- C++ -*-===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, quantile, seed-mixing and resource-usage helpers shared by the
/// benchmark's workloads and its traced replay.
///
//===----------------------------------------------------------------------===//

#ifndef WARPC_PERFBENCH_COMMON_H
#define WARPC_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Quantile by linear interpolation between order statistics (numpy's
/// default); 0 for an empty sample.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

/// Number of samples strictly above \p Threshold.
size_t countAbove(const std::vector<double> &Values, double Threshold);

/// SplitMix64 over (Seed, A, B): derives every per-module and per-edit
/// seed from the one benchmark seed.
uint64_t mixSeed(uint64_t Seed, uint64_t A, uint64_t B = 0);

/// CPU seconds (user + system) of this process plus its reaped children.
double cpuSeconds();

/// Peak resident set in MB: this process plus its largest reaped child.
double peakRssMb();

} // namespace perfbench

#endif // WARPC_PERFBENCH_COMMON_H
