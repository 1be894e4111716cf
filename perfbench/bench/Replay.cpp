//===- Replay.cpp - Layer-by-layer traced replay of one compile -----------===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "asmout/Assembly.h"
#include "asmout/DownloadModule.h"
#include "codegen/CodeGen.h"
#include "ir/IRBuilder.h"
#include "opt/Dependence.h"
#include "opt/Liveness.h"
#include "opt/LocalOpt.h"
#include "opt/LoopInfo.h"
#include "opt/ReachingDefs.h"
#include "parallel/WireProtocol.h"
#include "w2/Lexer.h"
#include "w2/Parser.h"
#include "w2/Sema.h"

#include <set>

using namespace warpc;

namespace perfbench {

const char *layerName(Layer L) {
  static const char *const Names[NumLayers] = {
      "w2.lex",          "w2.parse",          "w2.sema",
      "ir.lower",        "ir.verify",         "opt.unreachable",
      "opt.fold",        "opt.copyprop",      "opt.cse",
      "opt.dse",         "opt.dce",           "opt.liveness",
      "opt.reachdefs",   "codegen.loopinfo",  "codegen.dependence",
      "codegen.modulo",  "codegen.list",      "codegen.regalloc",
      "asmout.assemble", "asmout.combine",    "asmout.link",
      "cache.fingerprint", "cache.lookup",    "cache.store",
      "parallel.result_encode", "parallel.result_decode"};
  return Names[static_cast<unsigned>(L)];
}

uint64_t ModuleReplay::modelWork() const {
  uint64_t Work = Phase1.phase1Work() + Phase4.phase4Work();
  for (const driver::WorkMetrics &M : Compiled)
    Work += M.phase2Work() + M.phase3Work();
  return Work;
}

namespace {

/// Trace-event kind and phase of a layer span, chosen from the existing
/// event vocabulary so warp-traceview reads the file unchanged.
std::pair<obs::EventKind, obs::Phase> kindOf(Layer L) {
  switch (L) {
  case Layer::Lex:
  case Layer::Parse:
  case Layer::Sema:
    return {obs::EventKind::SpanParse, obs::Phase::Parse};
  case Layer::Lower:
  case Layer::Verify:
  case Layer::Unreachable:
  case Layer::Fold:
  case Layer::CopyProp:
  case Layer::CSE:
  case Layer::DSE:
  case Layer::DCE:
  case Layer::Liveness:
  case Layer::ReachDefs:
    return {obs::EventKind::SpanOptimize, obs::Phase::Compile};
  case Layer::LoopInfo:
  case Layer::Dependence:
  case Layer::Modulo:
  case Layer::List:
  case Layer::RegAlloc:
  case Layer::Assemble:
    return {obs::EventKind::SpanCodegen, obs::Phase::Compile};
  case Layer::Combine:
  case Layer::ResultEncode:
  case Layer::ResultDecode:
    return {obs::EventKind::SpanCombine, obs::Phase::Combine};
  case Layer::Link:
    return {obs::EventKind::SpanAssembly, obs::Phase::Assembly};
  case Layer::Fingerprint:
  case Layer::Lookup:
  case Layer::Store:
    return {obs::EventKind::SpanSchedule, obs::Phase::Schedule};
  }
  return {obs::EventKind::SpanCompile, obs::Phase::Compile};
}

} // namespace

Replayer::Replayer(obs::TraceRecorder *Rec, const codegen::MachineModel &MM)
    : Rec(Rec), MM(MM), Recording(Rec != nullptr), Epoch(Clock::now()) {
  if (!Rec)
    return;
  if (Rec->numLanes() == 0)
    Rec->makeLanes(1);
  EpochOffsetSec = Rec->nowSec();
  Rec->setEngine("replay");
  for (unsigned L = 0; L != NumLayers; ++L)
    LayerNameIds[L] = Rec->internFunction(layerName(static_cast<Layer>(L)));
}

void Replayer::open(obs::EventKind Kind, obs::Phase Ph, int32_t NameId,
                    int LayerIndex) {
  Frame F;
  F.LayerIndex = LayerIndex;
  if (Recording) {
    // Appended open (zero length) so children can name it as parent; the
    // deque-backed lane keeps the reference valid until close().
    obs::SpanEvent &E = Rec->lane(0).span(0, 0, Kind, Ph);
    E.Host = 0;
    E.Function = NameId;
    if (!Stack.empty() && Stack.back().Event)
      E.Parent = Stack.back().Event->spanId();
    F.Event = &E;
  }
  F.Start = Clock::now();
  Stack.push_back(F);
}

double Replayer::close() {
  const Clock::time_point End = Clock::now();
  Frame F = Stack.back();
  Stack.pop_back();
  const double Dur = secondsBetween(F.Start, End);
  if (F.LayerIndex >= 0)
    Current->LayerSec[static_cast<size_t>(F.LayerIndex)] += Dur - F.ChildSec;
  if (!Stack.empty())
    Stack.back().ChildSec += Dur;
  if (F.Event) {
    F.Event->TSec = EpochOffsetSec + secondsBetween(Epoch, F.Start);
    F.Event->DurSec = Dur;
  }
  return Dur;
}

void Replayer::openLayer(Layer L) {
  auto [Kind, Ph] = kindOf(L);
  open(Kind, Ph, LayerNameIds[static_cast<unsigned>(L)],
       static_cast<int>(L));
}

driver::FunctionResult
Replayer::compileFunction(const w2::SectionDecl &Section,
                          const w2::FunctionDecl &F, ModuleReplay &Out) {
  // Mirrors driver::compileFunction step for step; every call into a
  // layer is its own span.
  driver::FunctionResult R;
  R.SectionName = Section.getName();
  R.FunctionName = F.getName();
  R.Metrics.SourceLines = F.lineCount();
  R.Metrics.LoopDepth = w2::maxLoopDepth(F);
  R.Metrics.LoopCount = w2::countLoops(F);
  R.Metrics.AstNodes = w2::countAstNodes(F);

  std::unique_ptr<ir::IRFunction> IRF =
      timed(Layer::Lower, [&] { return ir::lowerFunction(F); });
  // compileFunction asserts the verifier after lowering and after the
  // local optimizer; assertions are compiled into the benchmark build.
  std::string VerifyError =
      timed(Layer::Verify, [&] { return ir::verifyFunction(*IRF); });
  if (!VerifyError.empty() && Out.Error.empty())
    Out.Error = F.getName() + ": lowering produced invalid IR: " + VerifyError;
  R.Metrics.IRInstrs = IRF->instructionCount();

  // runLocalOpt's sweep, pass by pass, to the same fixpoint.
  opt::OptStats Stats;
  const uint64_t MaxSweeps = 10;
  for (uint64_t Sweep = 0; Sweep != MaxSweeps; ++Sweep) {
    ++Stats.Iterations;
    uint64_t Applied = 0;
    Applied += timed(Layer::Unreachable,
                     [&] { return opt::removeUnreachableBlocks(*IRF, Stats); });
    Applied += timed(Layer::Fold,
                     [&] { return opt::foldConstants(*IRF, Stats); });
    Applied += timed(Layer::CopyProp,
                     [&] { return opt::propagateCopies(*IRF, Stats); });
    Applied += timed(Layer::CSE,
                     [&] { return opt::eliminateCommonSubexprs(*IRF, Stats); });
    Applied += timed(Layer::CopyProp,
                     [&] { return opt::propagateCopies(*IRF, Stats); });
    Applied += timed(Layer::DSE,
                     [&] { return opt::eliminateDeadStores(*IRF, Stats); });
    Applied += timed(Layer::DCE,
                     [&] { return opt::eliminateDeadCode(*IRF, Stats); });
    if (Applied == 0)
      break;
  }
  Out.Sweeps += Stats.Iterations;
  R.Metrics.OptVisited = Stats.InstrsVisited;
  R.Metrics.OptTransforms = Stats.totalTransforms();
  VerifyError = timed(Layer::Verify, [&] { return ir::verifyFunction(*IRF); });
  if (!VerifyError.empty() && Out.Error.empty())
    Out.Error = F.getName() + ": optimization broke the IR: " + VerifyError;

  opt::LivenessInfo Live = timed(
      Layer::Liveness, [&] { return opt::LivenessInfo::compute(*IRF); });
  opt::ReachingDefsInfo Reach = timed(
      Layer::ReachDefs, [&] { return opt::ReachingDefsInfo::compute(*IRF); });
  R.Metrics.DataflowIterations = Live.Iterations + Reach.Iterations;
  R.Metrics.DependenceWork = Live.Iterations * IRF->instructionCount() +
                             Reach.Iterations * IRF->instructionCount();
  R.IRInstrsAfterOpt = IRF->instructionCount();
  Out.InstrsAfterOpt += R.IRInstrsAfterOpt;

  // codegen::generateCode, call by call.
  codegen::MachineFunction MF;
  MF.Name = IRF->name();
  opt::LoopInfo LI =
      timed(Layer::LoopInfo, [&] { return opt::LoopInfo::compute(*IRF); });
  std::set<ir::BlockId> PipelinedBodies;
  for (const opt::Loop &L : LI.loops()) {
    if (!L.isSimpleInnerLoop() || PipelinedBodies.count(L.bodyBlock()))
      continue;
    ++MF.Metrics.LoopsConsidered;
    opt::LoopDeps Deps = timed(Layer::Dependence, [&] {
      return opt::analyzeLoopDependences(*IRF, L);
    });
    codegen::LoopSchedule Sched = timed(Layer::Modulo, [&] {
      return codegen::moduloSchedule(*IRF, L, Deps, MM);
    });
    MF.Metrics.ModuloSchedAttempts += Sched.Attempts;
    MF.Metrics.RecMIIWork += Sched.RecMIIWork;
    if (Sched.Pipelined) {
      ++MF.Metrics.LoopsPipelined;
      PipelinedBodies.insert(L.bodyBlock());
      MF.PipelinedLoops.emplace(L.bodyBlock(), std::move(Sched));
    }
  }
  // One span covers the list scheduling of every remaining block.
  MF.Blocks.resize(IRF->numBlocks());
  timed(Layer::List, [&] {
    for (size_t B = 0; B != IRF->numBlocks(); ++B) {
      if (PipelinedBodies.count(static_cast<ir::BlockId>(B)))
        continue;
      MF.Blocks[B] =
          codegen::listSchedule(*IRF->block(static_cast<ir::BlockId>(B)), MM);
      MF.Metrics.ListSchedAttempts += MF.Blocks[B].Attempts;
    }
    return 0;
  });
  MF.RA = timed(Layer::RegAlloc,
                [&] { return codegen::allocateRegisters(*IRF, MM); });
  MF.Metrics.RegAllocWork = MF.RA.Work;

  R.Metrics.ListSchedAttempts = MF.Metrics.ListSchedAttempts;
  R.Metrics.ModuloSchedAttempts = MF.Metrics.ModuloSchedAttempts;
  R.Metrics.RecMIIWork = MF.Metrics.RecMIIWork;
  R.Metrics.RegAllocWork = MF.Metrics.RegAllocWork;
  R.LoopsPipelined = MF.Metrics.LoopsPipelined;
  R.LoopsConsidered = MF.Metrics.LoopsConsidered;
  Out.LoopsConsidered += MF.Metrics.LoopsConsidered;
  Out.LoopsPipelined += MF.Metrics.LoopsPipelined;
  Out.Spills += MF.RA.Spills;

  if (MF.RA.Spills > 0)
    R.Diags.warning(F.getLoc(), "function '" + F.getName() + "' spills " +
                                    std::to_string(MF.RA.Spills) +
                                    " value(s) to cell memory");
  for (const auto &[Body, LS] : MF.PipelinedLoops) {
    (void)Body;
    Out.IIOverMIISum += LS.MII ? static_cast<double>(LS.II) / LS.MII : 1.0;
    if (LS.II > LS.MII)
      R.Diags.note(F.getLoc(), "loop pipelined at ii=" +
                                   std::to_string(LS.II) +
                                   " above its lower bound " +
                                   std::to_string(LS.MII));
  }

  R.Program = timed(Layer::Assemble,
                    [&] { return asmout::assembleFunction(*IRF, MF); });
  R.Metrics.CodeWords = R.Program.CodeWords;
  R.Metrics.ImageBytes = R.Program.Image.size();
  return R;
}

ModuleReplay Replayer::replay(const std::string &Source,
                              cache::CompileCache *Cache, bool ResultCodec) {
  ModuleReplay Out;
  Current = &Out;
  const int32_t ModuleNameId =
      Recording ? Rec->internFunction("module") : -1;
  open(obs::EventKind::SpanCompile, obs::Phase::Compile, ModuleNameId, -1);

  // Phase 1, as driver::parseAndCheck.
  DiagnosticEngine Diags;
  std::unique_ptr<w2::ModuleDecl> Module;
  {
    std::vector<w2::Token> Tokens = timed(Layer::Lex, [&] {
      w2::Lexer Lexer(Source, Diags);
      std::vector<w2::Token> T = Lexer.lexAll();
      Out.Phase1.Tokens = Lexer.tokenCount();
      return T;
    });
    if (!Diags.hasErrors())
      Module = timed(Layer::Parse, [&] {
        w2::Parser Parser(std::move(Tokens), Diags);
        return Parser.parseModule();
      });
    if (Module && !Diags.hasErrors()) {
      for (size_t S = 0; S != Module->numSections(); ++S)
        for (size_t F = 0; F != Module->getSection(S)->numFunctions(); ++F)
          Out.Phase1.AstNodes +=
              w2::countAstNodes(*Module->getSection(S)->getFunction(F));
      Out.Phase1.SemaNodes = timed(Layer::Sema, [&] {
        w2::Sema Sema(Diags);
        Sema.checkModule(*Module);
        return Sema.checkedNodeCount();
      });
    }
  }
  Out.Phase1Sec = Out.LayerSec[static_cast<size_t>(Layer::Lex)] +
                  Out.LayerSec[static_cast<size_t>(Layer::Parse)] +
                  Out.LayerSec[static_cast<size_t>(Layer::Sema)];
  if (!Module || Diags.hasErrors()) {
    Out.Error = "phase 1 failed: " + Diags.str();
    close();
    Current = nullptr;
    return Out;
  }

  // Phases 2 and 3, one function after another.
  uint32_t TaskIndex = 0;
  for (size_t S = 0; S != Module->numSections(); ++S) {
    const w2::SectionDecl &Section = *Module->getSection(S);
    for (size_t FI = 0; FI != Section.numFunctions(); ++FI, ++TaskIndex) {
      const w2::FunctionDecl &F = *Section.getFunction(FI);
      double CostSec = 0;
      if (Cache) {
        // The fingerprint is also computed inside lookup(); timing it on
        // its own shows how much of a lookup it is.
        timed(Layer::Fingerprint, [&] {
          return cache::fingerprintFunction(Section, F, Cache->context());
        });
        openLayer(Layer::Lookup);
        std::optional<driver::FunctionResult> Hit = Cache->lookup(Section, F);
        const bool IsHit =
            Hit && driver::validateFunctionResult(Section, F, *Hit);
        if (IsHit && Stack.back().Event)
          Stack.back().Event->Kind = obs::EventKind::SpanCacheHit;
        CostSec += close();
        if (IsHit) {
          Out.FunctionCostSec.push_back(CostSec);
          Out.Functions.push_back(std::move(*Hit));
          continue;
        }
      }
      open(obs::EventKind::SpanCompile, obs::Phase::Compile,
           Recording ? Rec->internFunction(Section.getName() + "." +
                                           F.getName())
                     : -1,
           -1);
      driver::FunctionResult R = compileFunction(Section, F, Out);
      const double FnSec = close();
      Out.FunctionSec.push_back(FnSec);
      CostSec += FnSec;
      Out.Compiled.push_back(R.Metrics);
      if (Cache) {
        if (driver::validateFunctionResult(Section, F, R)) {
          openLayer(Layer::Store);
          Cache->store(Section, F, R);
          CostSec += close();
        }
        Out.CacheEntryBytes += cache::encodeFunctionResult(R).size();
      }
      if (ResultCodec) {
        // The worker's side of a result hand-off, then the master's.
        openLayer(Layer::ResultEncode);
        parallel::wire::ResultMsg Msg;
        Msg.TaskIndex = TaskIndex;
        Msg.ResultBytes = cache::encodeFunctionResult(R);
        const std::vector<uint8_t> Frame =
            parallel::wire::encodeFrame(parallel::wire::FrameType::Result,
                                        parallel::wire::encodeResult(Msg));
        CostSec += close();
        Out.ResultBytes += Frame.size();

        openLayer(Layer::ResultDecode);
        parallel::wire::FrameDecoder Decoder;
        Decoder.feed(Frame.data(), Frame.size());
        parallel::wire::Frame Got;
        parallel::wire::ResultMsg GotMsg;
        driver::FunctionResult Decoded;
        const bool DecodedOk =
            Decoder.next(Got) == parallel::wire::DecodeStatus::Ready &&
            parallel::wire::decodeResult(Got.Payload, GotMsg) &&
            cache::decodeFunctionResult(GotMsg.ResultBytes, Decoded);
        CostSec += close();
        if ((!DecodedOk || Decoded.Program.Image != R.Program.Image) &&
            Out.Error.empty())
          Out.Error = F.getName() + ": result frame did not round-trip";
      }
      Out.FunctionCostSec.push_back(CostSec);
      Out.Functions.push_back(std::move(R));
    }
  }

  // Phase 4, as driver::assembleAndLink.
  std::vector<asmout::SectionImage> Sections;
  size_t Cursor = 0;
  for (size_t S = 0; S != Module->numSections(); ++S) {
    const w2::SectionDecl &Section = *Module->getSection(S);
    std::vector<asmout::CellProgram> Programs;
    for (size_t F = 0; F != Section.numFunctions(); ++F)
      Programs.push_back(Out.Functions[Cursor++].Program);
    Sections.push_back(timed(Layer::Combine, [&] {
      return asmout::combineSection(Section.getName(), Section.getNumCells(),
                                    std::move(Programs));
    }));
    Out.Phase4.ImageBytes += Sections.back().IODriver.size();
  }
  asmout::DownloadModule Image = timed(Layer::Link, [&] {
    return asmout::linkModule(Module->getName(), std::move(Sections));
  });
  for (const asmout::SectionImage &S : Image.Sections)
    Out.Phase4.CodeWords += S.totalWords();
  Out.Phase4.ImageBytes += Image.byteSize();
  Out.Phase4Sec = Out.LayerSec[static_cast<size_t>(Layer::Combine)] +
                  Out.LayerSec[static_cast<size_t>(Layer::Link)];
  Out.Image = std::move(Image.Image);
  close();
  Current = nullptr;
  return Out;
}

} // namespace perfbench
