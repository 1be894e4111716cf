//===- Replay.h - Layer-by-layer traced replay of one compile ---*- C++ -*-===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's instrument. It replays driver::compileModuleSequential
/// call by call through each layer's public functions (lexer, parser,
/// sema, lowering, verifier, the seven local-opt calls of one sweep,
/// dataflow, loop analysis, modulo and list scheduling, register
/// allocation, assembly, section combination and linking), timing every
/// call from outside. Each call becomes one span in an obs::TraceRecorder,
/// parented to its function span, which is parented to its module span;
/// a span's self time is its duration minus its children's. The replay
/// must reproduce compileFunction's results byte for byte.
///
//===----------------------------------------------------------------------===//

#ifndef WARPC_PERFBENCH_REPLAY_H
#define WARPC_PERFBENCH_REPLAY_H

#include "Common.h"

#include "cache/CompileCache.h"
#include "codegen/MachineModel.h"
#include "driver/Compiler.h"
#include "obs/TraceRecorder.h"

#include <array>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : unsigned {
  Lex,
  Parse,
  Sema,
  Lower,
  Verify,
  Unreachable,
  Fold,
  CopyProp,
  CSE,
  DSE,
  DCE,
  Liveness,
  ReachDefs,
  LoopInfo,
  Dependence,
  Modulo,
  List,
  RegAlloc,
  Assemble,
  Combine,
  Link,
  Fingerprint,
  Lookup,
  Store,
  ResultEncode,
  ResultDecode,
};
inline constexpr unsigned NumLayers =
    static_cast<unsigned>(Layer::ResultDecode) + 1;

/// The span label of a layer, e.g. "opt.cse".
const char *layerName(Layer L);

/// What one module replay did: self seconds per layer, phase and
/// per-function times, and the work counts the 1989 cost model reads.
struct ModuleReplay {
  std::string Error; ///< Empty when the replay matched compileFunction.
  std::array<double, NumLayers> LayerSec{};
  double Phase1Sec = 0; ///< lex + parse + sema.
  double Phase4Sec = 0; ///< combine + link.
  /// Per function: its compile span plus the cache lookup/store and
  /// result-codec calls made on its behalf (a cache hit costs its lookup
  /// only). The separately timed fingerprint is not part of the cost.
  std::vector<double> FunctionCostSec;
  /// Function spans alone, for the driver.function_s quantiles.
  std::vector<double> FunctionSec;

  warpc::driver::WorkMetrics Phase1;
  warpc::driver::WorkMetrics Phase4;
  /// Metrics of the functions actually compiled (cache misses).
  std::vector<warpc::driver::WorkMetrics> Compiled;
  uint64_t Sweeps = 0;
  uint64_t InstrsAfterOpt = 0;
  uint64_t Spills = 0;
  uint64_t LoopsConsidered = 0;
  uint64_t LoopsPipelined = 0;
  double IIOverMIISum = 0;
  uint64_t CacheEntryBytes = 0;
  uint64_t ResultBytes = 0;
  /// Flat function results in declaration order (hits replay the cache).
  std::vector<warpc::driver::FunctionResult> Functions;
  std::vector<uint8_t> Image;

  /// Abstract work units (phase1Work + per-function phase2/3 work +
  /// phase4Work) of what this replay compiled.
  uint64_t modelWork() const;
};

class Replayer {
public:
  /// \p Rec (Steady domain) receives the spans while recording is on;
  /// null records nothing.
  Replayer(warpc::obs::TraceRecorder *Rec,
           const warpc::codegen::MachineModel &MM);

  void setRecording(bool On) { Recording = On && Rec != nullptr; }

  /// Replays one module. A non-null \p Cache fronts every function the
  /// way compileFunctionCached does; \p ResultCodec also round-trips
  /// each result through the process engine's WRP1 result frame.
  ModuleReplay replay(const std::string &Source,
                      warpc::cache::CompileCache *Cache, bool ResultCodec);

private:
  struct Frame {
    Clock::time_point Start;
    double ChildSec = 0;
    warpc::obs::SpanEvent *Event = nullptr;
    int LayerIndex = -1;
  };

  void open(warpc::obs::EventKind Kind, warpc::obs::Phase Ph,
            int32_t NameId, int LayerIndex);
  double close();

  template <typename Fn> auto timed(Layer L, Fn &&Call) {
    openLayer(L);
    auto Result = Call();
    close();
    return Result;
  }
  void openLayer(Layer L);

  warpc::driver::FunctionResult
  compileFunction(const warpc::w2::SectionDecl &Section,
                  const warpc::w2::FunctionDecl &F, ModuleReplay &Out);

  warpc::obs::TraceRecorder *Rec;
  const warpc::codegen::MachineModel &MM;
  bool Recording = false;
  Clock::time_point Epoch;
  double EpochOffsetSec = 0;
  std::array<int32_t, NumLayers> LayerNameIds{};
  std::vector<Frame> Stack;
  ModuleReplay *Current = nullptr;
};

} // namespace perfbench

#endif // WARPC_PERFBENCH_REPLAY_H
