//===- Inputs.h - Seeded module sources for the benchmark -------*- C++ -*-===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every module the benchmark compiles is assembled from function bodies
/// that workload::Generator produces, seeded only by the benchmark seed.
///
//===----------------------------------------------------------------------===//

#ifndef WARPC_PERFBENCH_INPUTS_H
#define WARPC_PERFBENCH_INPUTS_H

#include "workload/Generator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// small_fns_thread module \p Index: 24 functions in two sections of 12,
/// 18 f_small and 6 f_tiny in a seeded order.
std::string smallFnsModule(uint64_t Seed, unsigned Index);

/// user_prog_process module \p Index: the paper's nine-function user
/// program, generated with its own derived seed.
std::string userProgModule(uint64_t Seed, unsigned Index);

/// One daemon connection's module: six functions (four f_medium, two
/// f_large) in one section. Each edit re-seeds one function in place and
/// keeps the other five byte for byte.
class EditableModule {
public:
  EditableModule(uint64_t Seed, unsigned Conn);

  /// Applies edit \p Request: re-seeds function Request % 6.
  void applyEdit(unsigned Request);
  std::string source() const;
  static constexpr unsigned NumFunctions = 6;

private:
  uint64_t Seed;
  unsigned Conn;
  std::vector<warpc::workload::FunctionSize> Sizes;
  std::vector<std::string> Bodies;
};

} // namespace perfbench

#endif // WARPC_PERFBENCH_INPUTS_H
