//===- Inputs.cpp - Seeded module sources for the benchmark ---------------===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "Common.h"

#include <algorithm>

using warpc::workload::FunctionSize;
using warpc::workload::generateFunction;

namespace perfbench {

std::string smallFnsModule(uint64_t Seed, unsigned Index) {
  const uint64_t ModuleSeed = mixSeed(Seed, 1, Index);
  std::vector<FunctionSize> Sizes(24, FunctionSize::Small);
  std::fill(Sizes.begin(), Sizes.begin() + 6, FunctionSize::Tiny);
  // Seeded Fisher-Yates, so tiny functions land anywhere in the module.
  for (size_t I = Sizes.size() - 1; I > 0; --I)
    std::swap(Sizes[I], Sizes[mixSeed(ModuleSeed, 2, I) % (I + 1)]);

  std::string Out = "module small" + std::to_string(Index) + ";\n";
  for (unsigned S = 0; S != 2; ++S) {
    Out += "section part" + std::to_string(S + 1) + " cells 10 {\n";
    for (unsigned F = 0; F != 12; ++F) {
      const unsigned Flat = S * 12 + F;
      Out += generateFunction(Sizes[Flat], "f" + std::to_string(Flat + 1),
                              mixSeed(ModuleSeed, 3, Flat));
    }
    Out += "}\n";
  }
  return Out;
}

std::string userProgModule(uint64_t Seed, unsigned Index) {
  // The seed changes the bodies only; line counts and loop depths stay
  // the paper's.
  return warpc::workload::makeUserProgram(mixSeed(Seed, 4, Index));
}

EditableModule::EditableModule(uint64_t Seed, unsigned Conn)
    : Seed(Seed), Conn(Conn),
      Sizes({FunctionSize::Medium, FunctionSize::Large, FunctionSize::Medium,
             FunctionSize::Medium, FunctionSize::Large,
             FunctionSize::Medium}) {
  for (unsigned F = 0; F != NumFunctions; ++F)
    Bodies.push_back(generateFunction(Sizes[F], "g" + std::to_string(F + 1),
                                      mixSeed(Seed, 5 + Conn, F)));
}

void EditableModule::applyEdit(unsigned Request) {
  const unsigned F = Request % NumFunctions;
  Bodies[F] = generateFunction(Sizes[F], "g" + std::to_string(F + 1),
                               mixSeed(Seed, 100 + Conn, Request));
}

std::string EditableModule::source() const {
  std::string Out = "module conn" + std::to_string(Conn) + ";\n";
  Out += "section edit cells 10 {\n";
  for (const std::string &Body : Bodies)
    Out += Body;
  Out += "}\n";
  return Out;
}

} // namespace perfbench
