//===- main.cpp - warp-bench, the repository benchmark's driver -----------===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// warp-bench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
///            [--recount 0|1]
///
/// Runs one closed-loop workload against a real engine for S seconds and
/// prints one JSON document on stdout: the end-to-end metrics, and with
/// --trace 1 the per-layer metrics of a layer-by-layer replay (whose spans
/// go to DIR/trace-<workload>.json). Workloads:
///
///   small_fns_thread   parallel::compileModuleParallel, min(4, cpus)
///                      threads, 24-function modules of f_small/f_tiny.
///   user_prog_process  parallel::compileModuleProcess, min(4, cpus)
///                      warp-worker processes, the 9-function user program.
///   daemon_edit_cache  an in-process service::CompileService (sequential
///                      engine, 2 in flight, memory cache) driven over
///                      service::Client by min(4, cpus) connections, each
///                      re-seeding one function of its 6-function module
///                      per request.
///
/// Every result is checked after the timed window: its image must equal,
/// byte for byte, an uncached driver::compileModuleSequential of the same
/// source, and engine-reported work counts must equal the reference's.
///
/// With --recount 1 nothing is timed: the run only recomputes, from the
/// seed, the reference counts (and with --trace 1 the replayed layer
/// counts) that a full run reports under "determinism", so that a second
/// process can confirm them.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Inputs.h"
#include "Replay.h"

#include "cache/CompileCache.h"
#include "driver/Compiler.h"
#include "obs/ChromeTrace.h"
#include "obs/TraceRecorder.h"
#include "parallel/ProcessRunner.h"
#include "parallel/ThreadRunner.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sched.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace warpc;
using namespace perfbench;

namespace {

/// Distinct modules the thread and process workloads cycle through: enough
/// that the slowest twentieth of a run (compile_s.p95) spans many modules
/// and so repeats across seeds.
constexpr unsigned SmallFnsModules = 192;
constexpr unsigned UserProgModules = 96;
/// Modules of the pool workloads replayed in the traced run.
constexpr unsigned ReplayedModules = 48;
/// Seconds of discarded compiles on every CPU the run uses, before its
/// set-ups: on virtual machines a CPU that has idled can run a third
/// slower for a second or two, which would otherwise land in set-up and
/// the first part of the window.
constexpr double SpinUpSec = 2.0;
/// Daemon requests per connection whose references fix
/// code_words_per_module and the determinism counts.
constexpr unsigned DaemonPrefix = 24;
/// Daemon requests per connection replayed in the traced run.
constexpr unsigned DaemonReplays = 8;
/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupRepeats = 7;
/// Warm-up compiles per set-up of the thread and process workloads. One
/// module's cost depends much on its seed; twelve make set-up cost nearly
/// the same for every seed.
constexpr unsigned WarmUps = 12;
/// Extra whole modules each daemon connection compiles in set-up, after
/// its own, for the same reason.
constexpr unsigned DaemonWarmUps = 2;
/// peak_rss_mb is read when this many timed compiles have completed (or
/// at the end of a shorter window). The daemon's memory cache keeps every
/// result, so its resident set grows with the requests served; reading it
/// after a fixed amount of work keeps a faster daemon from looking larger.
constexpr unsigned RssAfterCompiles = 200;
/// Modules whose replay spans go into the trace file.
constexpr unsigned TracedModules = 4;
/// Fewest untraced samples above compile_s.p95 a run may have.
constexpr size_t MinBeyondP95 = 10;

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  bool Recount = false; ///< Recompute the deterministic counts only.
  std::string OutDir = ".";
};

unsigned availableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// One timed compile and what the engine reported about it.
struct Sample {
  unsigned Module = 0; ///< Pool index, or request index for the daemon.
  bool Traced = false;
  double LatencySec = 0;
  std::string Failure; ///< Empty while the sample is good.
  uint64_t SpoolOffset = 0;
  uint64_t ImageSize = 0;
  driver::WorkMetrics Work; ///< Engine-reported counts (thread, process).
  double Phase1Sec = 0;
  double FanoutSec = 0;
  double Phase4Sec = 0;
  unsigned Workers = 0;
  unsigned Retries = 0;
  unsigned Recovered = 0;
  double QueueSec = 0;
  double ExecSec = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  bool Rejected = false;
};

/// Response images appended to a spool file during the timed window, so
/// the check can compare bytes afterwards without the images inflating
/// this process's resident set.
class Spool {
public:
  explicit Spool(std::string P) : Path(std::move(P)) {
    File = std::fopen(Path.c_str(), "w+b");
  }
  ~Spool() {
    if (File)
      std::fclose(File);
    std::remove(Path.c_str());
  }
  Spool(const Spool &) = delete;
  Spool &operator=(const Spool &) = delete;

  bool ok() const { return File != nullptr; }
  uint64_t append(const std::vector<uint8_t> &Bytes) {
    const uint64_t Offset = End;
    std::fseek(File, static_cast<long>(End), SEEK_SET);
    std::fwrite(Bytes.data(), 1, Bytes.size(), File);
    End += Bytes.size();
    return Offset;
  }
  std::vector<uint8_t> read(uint64_t Offset, uint64_t Size) {
    std::vector<uint8_t> Bytes(Size);
    std::fflush(File);
    std::fseek(File, static_cast<long>(Offset), SEEK_SET);
    if (std::fread(Bytes.data(), 1, Size, File) != Size)
      Bytes.clear();
    return Bytes;
  }

private:
  std::string Path;
  std::FILE *File = nullptr;
  uint64_t End = 0;
};

bool sameWork(const driver::WorkMetrics &A, const driver::WorkMetrics &B) {
  return A.Tokens == B.Tokens && A.AstNodes == B.AstNodes &&
         A.SemaNodes == B.SemaNodes && A.IRInstrs == B.IRInstrs &&
         A.OptVisited == B.OptVisited && A.OptTransforms == B.OptTransforms &&
         A.DataflowIterations == B.DataflowIterations &&
         A.DependenceWork == B.DependenceWork &&
         A.ListSchedAttempts == B.ListSchedAttempts &&
         A.ModuloSchedAttempts == B.ModuloSchedAttempts &&
         A.RecMIIWork == B.RecMIIWork && A.RegAllocWork == B.RegAllocWork &&
         A.CodeWords == B.CodeWords && A.ImageBytes == B.ImageBytes &&
         A.SourceLines == B.SourceLines && A.LoopDepth == B.LoopDepth &&
         A.LoopCount == B.LoopCount;
}

/// Runs Body(I) for I in [0, N) on up to \p Threads threads.
void parallelFor(unsigned N, unsigned Threads,
                 const std::function<void(unsigned)> &Body) {
  std::atomic<unsigned> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != std::max(1u, std::min(Threads, N)); ++T)
    Pool.emplace_back([&] {
      for (unsigned I = Next++; I < N; I = Next++)
        Body(I);
    });
  for (std::thread &T : Pool)
    T.join();
}

/// The modules a fixed prefix of the workload compiles, summed into the
/// counts that must repeat exactly for one seed.
struct Determinism {
  unsigned Modules = 0;
  uint64_t CodeWords = 0;
  driver::WorkMetrics Work;
  uint64_t ModelWork = 0;
  uint64_t ImageBytes = 0;

  void add(const driver::ModuleResult &M) {
    ++Modules;
    CodeWords += M.Phase4.CodeWords;
    ImageBytes += M.Image.byteSize();
    for (const driver::FunctionResult &F : M.Functions) {
      Work += F.Metrics;
      ModelWork += F.Metrics.phase2Work() + F.Metrics.phase3Work();
    }
    Work.Tokens += M.Phase1.Tokens;
    Work.SemaNodes += M.Phase1.SemaNodes;
    ModelWork += M.Phase1.phase1Work() + M.Phase4.phase4Work();
  }
  void merge(const Determinism &O) {
    Modules += O.Modules;
    CodeWords += O.CodeWords;
    Work += O.Work;
    ModelWork += O.ModelWork;
    ImageBytes += O.ImageBytes;
  }
  double codeWordsPerModule() const {
    return Modules ? static_cast<double>(CodeWords) / Modules : 0.0;
  }
  json::Value toJson() const {
    json::Value V = json::Value::object();
    V.set("modules", Modules);
    V.set("code_words", CodeWords);
    V.set("image_bytes", ImageBytes);
    V.set("model_work", ModelWork);
    V.set("tokens", Work.Tokens);
    V.set("ast_nodes", Work.AstNodes);
    V.set("sema_nodes", Work.SemaNodes);
    V.set("ir_instrs", Work.IRInstrs);
    V.set("opt_visited", Work.OptVisited);
    V.set("opt_transforms", Work.OptTransforms);
    V.set("dataflow_iterations", Work.DataflowIterations);
    V.set("list_attempts", Work.ListSchedAttempts);
    V.set("modulo_attempts", Work.ModuloSchedAttempts);
    V.set("recmii_work", Work.RecMIIWork);
    V.set("regalloc_work", Work.RegAllocWork);
    return V;
  }
};

/// Everything one run measured, checked and replayed.
struct RunState {
  Options Opt;
  unsigned Workers = 1;
  codegen::MachineModel MM = codegen::MachineModel::warpCell();
  std::vector<double> SetupSec;
  std::vector<Sample> Samples;
  double WindowSec = 0;
  double CpuSec = 0;
  double PeakRssMb = 0; ///< See RssAfterCompiles.
  /// Run-level failures (set-up, references, trace file).
  std::vector<std::string> Failures;
  unsigned ReplaysAttempted = 0;
  std::vector<std::string> ReplayFailures;
  Determinism Det;
  /// Replayed modules: pool module K is Replays[K]; daemon replays are
  /// connection after connection, request after request.
  std::vector<ModuleReplay> Replays;
  std::string TracePath;

  bool daemon() const { return Opt.Workload == "daemon_edit_cache"; }
  bool process() const { return Opt.Workload == "user_prog_process"; }
};

void spinUp(const RunState &S) {
  const std::string Source = smallFnsModule(S.Opt.Seed, SmallFnsModules);
  parallelFor(S.Workers, S.Workers, [&](unsigned) {
    const Clock::time_point T0 = Clock::now();
    while (secondsBetween(T0, Clock::now()) < SpinUpSec)
      driver::compileModuleSequential(Source, S.MM);
  });
}

/// Compares a replay against the uncached reference of the same source.
void checkReplay(RunState &S, const ModuleReplay &R,
                 const driver::ModuleResult &Ref, const std::string &What) {
  ++S.ReplaysAttempted;
  std::string Why = R.Error;
  if (Why.empty() && R.Image != Ref.Image.Image)
    Why = "replayed image differs from compileModuleSequential";
  if (Why.empty() && R.Functions.size() != Ref.Functions.size())
    Why = "replay compiled a different number of functions";
  for (size_t F = 0; Why.empty() && F != R.Functions.size(); ++F)
    if (cache::encodeFunctionResult(R.Functions[F]) !=
        cache::encodeFunctionResult(Ref.Functions[F]))
      Why = "replayed result of " + Ref.Functions[F].FunctionName +
            " differs from compileFunction's";
  if (!Why.empty())
    S.ReplayFailures.push_back(What + ": " + Why);
}

void writeTrace(RunState &S, obs::TraceRecorder &Rec) {
  obs::TraceSession Session = Rec.finish();
  S.TracePath = S.Opt.OutDir + "/trace-" + S.Opt.Workload + ".json";
  std::string Error;
  if (!obs::writeChromeTraceFile(Session, S.TracePath, Error))
    S.Failures.push_back("trace file: " + Error);
}

//===-- Thread and process workloads --------------------------------------===//

void runPool(RunState &S) {
  const bool Process = S.process();
  const driver::FaultPolicy Policy;
  parallel::ProcessRunnerConfig PC;
  PC.WorkerBinary = parallel::defaultWorkerBinary();
  if (Process && (PC.WorkerBinary.empty() ||
                  ::access(PC.WorkerBinary.c_str(), X_OK) != 0)) {
    S.Failures.push_back("warp-worker binary not found next to warp-bench");
    return;
  }

  // One compile through the requested engine, checked for the quiet
  // failure modes: errors, master fallbacks, no worker ever spawned.
  auto CompileOnce = [&](const std::string &Source, bool Traced,
                         Sample &Out) -> driver::ModuleResult {
    std::unique_ptr<obs::TraceRecorder> Rec;
    if (Traced)
      Rec = std::make_unique<obs::TraceRecorder>(obs::ClockDomain::Steady);
    driver::ModuleResult Module;
    if (Process) {
      parallel::ProcessRunResult R = parallel::compileModuleProcess(
          Source, S.MM, S.Workers, Policy, PC, Rec.get());
      Module = std::move(R.Module);
      Out.Phase1Sec = R.Phase1Sec;
      Out.FanoutSec = R.ParallelPhaseSec;
      Out.Phase4Sec = R.Phase4Sec;
      Out.Workers = R.WorkersSpawned;
      Out.Retries = R.RetriesAttempted;
      Out.Recovered = R.FunctionsRecovered;
    } else {
      parallel::ThreadRunResult R = parallel::compileModuleParallel(
          Source, S.MM, S.Workers, Policy, nullptr, Rec.get());
      Module = std::move(R.Module);
      Out.Phase1Sec = R.Phase1Sec;
      Out.FanoutSec = R.ParallelPhaseSec;
      Out.Phase4Sec = R.Phase4Sec;
      Out.Workers = R.WorkersUsed;
      Out.Retries = R.RetriesAttempted;
      Out.Recovered = R.FunctionsRecovered;
    }
    if (Rec)
      Rec->finish();
    if (!Module.Succeeded || Module.Diags.hasErrors())
      Out.Failure = "compile error: " + Module.Diags.str();
    else if (Out.Workers == 0)
      Out.Failure = "no worker was spawned";
    else if (Out.Recovered > 0)
      Out.Failure = std::to_string(Out.Recovered) +
                    " function(s) fell back to the master";
    Out.Work = Module.totalMetrics();
    return Module;
  };

  const unsigned PoolModules = Process ? UserProgModules : SmallFnsModules;
  auto MakeSource = [&](unsigned K) {
    return Process ? userProgModule(S.Opt.Seed, K)
                   : smallFnsModule(S.Opt.Seed, K);
  };

  std::vector<std::string> Sources;
  auto Generate = [&] {
    Sources.clear();
    for (unsigned K = 0; K != PoolModules; ++K)
      Sources.push_back(MakeSource(K));
  };
  if (S.Opt.Recount)
    Generate();
  // Set-up: input generation plus the warm-up compiles, several times.
  for (unsigned Rep = 0; !S.Opt.Recount && Rep != SetupRepeats; ++Rep) {
    const Clock::time_point T0 = Clock::now();
    Generate();
    std::string Failure;
    for (unsigned K = 0; K != WarmUps && Failure.empty(); ++K) {
      Sample Warm;
      CompileOnce(Sources[K], false, Warm);
      Failure = Warm.Failure;
    }
    S.SetupSec.push_back(secondsBetween(T0, Clock::now()));
    if (!Failure.empty()) {
      S.Failures.push_back("warm-up compile: " + Failure);
      return;
    }
  }

  // The timed window: a closed loop over the module sequence.
  Spool Images(S.Opt.OutDir + "/spool-" + std::to_string(::getpid()) + ".bin");
  if (!Images.ok()) {
    S.Failures.push_back("cannot create the image spool");
    return;
  }
  const double Cpu0 = cpuSeconds();
  const Clock::time_point Start = Clock::now();
  Clock::time_point Last = Start;
  for (unsigned I = 0;
       !S.Opt.Recount && secondsBetween(Start, Last) < S.Opt.Seconds; ++I) {
    Sample Smp;
    // A traced run compiles each module twice in a row, untraced then
    // traced, so trace.overhead compares the same modules.
    Smp.Module = (S.Opt.Trace ? I / 2 : I) % PoolModules;
    Smp.Traced = S.Opt.Trace && I % 2 == 1;
    const Clock::time_point T0 = Clock::now();
    driver::ModuleResult M = CompileOnce(Sources[Smp.Module], Smp.Traced, Smp);
    Last = Clock::now();
    Smp.LatencySec = secondsBetween(T0, Last);
    Smp.ImageSize = M.Image.Image.size();
    Smp.SpoolOffset = Images.append(M.Image.Image);
    S.Samples.push_back(std::move(Smp));
    if (S.Samples.size() == RssAfterCompiles)
      S.PeakRssMb = peakRssMb();
  }
  S.WindowSec = secondsBetween(Start, Last);
  S.CpuSec = cpuSeconds() - Cpu0;
  if (S.Samples.size() < RssAfterCompiles)
    S.PeakRssMb = peakRssMb();

  // Check every result against an uncached sequential compile.
  std::vector<driver::ModuleResult> Refs(PoolModules);
  parallelFor(PoolModules, S.Workers, [&](unsigned K) {
    Refs[K] = driver::compileModuleSequential(Sources[K], S.MM);
  });
  for (const driver::ModuleResult &Ref : Refs) {
    if (!Ref.Succeeded)
      S.Failures.push_back("reference compile failed: " + Ref.Diags.str());
    S.Det.add(Ref);
  }
  for (Sample &Smp : S.Samples) {
    if (!Smp.Failure.empty())
      continue;
    const driver::ModuleResult &Ref = Refs[Smp.Module];
    if (Images.read(Smp.SpoolOffset, Smp.ImageSize) != Ref.Image.Image)
      Smp.Failure = "image differs from compileModuleSequential";
    else if (!sameWork(Smp.Work, Ref.totalMetrics()))
      Smp.Failure = "work counts differ from compileModuleSequential";
  }

  if (!S.Opt.Trace)
    return;
  obs::TraceRecorder Rec(obs::ClockDomain::Steady);
  Replayer Replay(S.Opt.Recount ? nullptr : &Rec, S.MM);
  for (unsigned K = 0; K != ReplayedModules; ++K) {
    Replay.setRecording(K < TracedModules);
    S.Replays.push_back(Replay.replay(Sources[K], nullptr, Process));
    checkReplay(S, S.Replays.back(), Refs[K],
                "replay of module " + std::to_string(K));
  }
  if (!S.Opt.Recount)
    writeTrace(S, Rec);
}

//===-- Daemon workload ---------------------------------------------------===//

struct Daemon {
  std::unique_ptr<service::CompileService> Service;
  std::vector<std::unique_ptr<service::Client>> Clients;
  std::vector<EditableModule> Modules;

  void stop() {
    for (auto &C : Clients)
      C->close();
    Clients.clear();
    if (Service)
      Service->stop();
    Service.reset();
  }
};

/// Starts a service, connects the clients and makes each connection's
/// first full compile (which fills the cache), then its warm-up compiles
/// of modules no timed request edits. Empty string on success.
std::string startDaemon(RunState &S, Daemon &D, unsigned Rep) {
  for (unsigned C = 0; C != S.Workers; ++C)
    D.Modules.emplace_back(S.Opt.Seed, C);
  service::ServiceConfig Config;
  Config.SocketPath = S.Opt.OutDir + "/warpd-" + std::to_string(::getpid()) +
                      "-" + std::to_string(Rep) + ".sock";
  Config.Engine = "sequential";
  Config.MaxInFlight = 2;
  Config.CacheMode = cache::CacheMode::Memory;
  D.Service = std::make_unique<service::CompileService>(Config);
  std::string Error;
  if (!D.Service->start(Error))
    return "service start: " + Error;
  for (unsigned C = 0; C != S.Workers; ++C) {
    D.Clients.push_back(std::make_unique<service::Client>());
    if (!D.Clients.back()->connect(Config.SocketPath, Error))
      return "connect: " + Error;
  }
  // The connections compile side by side, as in the timed window; one at
  // a time would leave CPUs idle, and idle virtual CPUs run slower for a
  // while afterwards.
  std::vector<std::string> Errors(S.Workers);
  parallelFor(S.Workers, S.Workers, [&](unsigned C) {
    for (unsigned W = 0; W != 1 + DaemonWarmUps && Errors[C].empty(); ++W) {
      service::wire::CompileRequestMsg Req;
      Req.RequestId = 1 + W;
      Req.ModuleSource =
          W == 0 ? D.Modules[C].source()
                 : EditableModule(S.Opt.Seed, S.Workers * W + C).source();
      service::RequestOutcome Out;
      std::string Why;
      if (!D.Clients[C]->compile(Req, Out, Why, 60.0))
        Errors[C] = "set-up compile: " + Why;
      else if (!Out.Accepted || Out.Result.Status != 0)
        Errors[C] = "set-up compile failed: " + Out.Result.DiagText;
    }
  });
  for (const std::string &E : Errors)
    if (!E.empty())
      return E;
  return "";
}

/// Checks every response against an uncached sequential compile of the
/// same edited module; the first DaemonPrefix requests of every connection
/// fix the deterministic counts. With --trace 1, then replays each
/// connection's first requests.
void checkDaemon(RunState &S, std::vector<std::vector<Sample>> &PerConn,
                 std::vector<std::unique_ptr<Spool>> &Spools) {
  const unsigned Conns = S.Workers;
  std::vector<Determinism> Dets(Conns);
  std::vector<std::vector<driver::ModuleResult>> ReplayRefs(Conns);
  parallelFor(Conns, Conns, [&](unsigned C) {
    EditableModule M(S.Opt.Seed, C);
    const unsigned N = std::max<unsigned>(
        static_cast<unsigned>(PerConn[C].size()), DaemonPrefix);
    for (unsigned R = 0; R != N; ++R) {
      M.applyEdit(R);
      driver::ModuleResult Ref =
          driver::compileModuleSequential(M.source(), S.MM);
      if (R < PerConn[C].size()) {
        Sample &Smp = PerConn[C][R];
        if (Smp.Failure.empty() &&
            Spools[C]->read(Smp.SpoolOffset, Smp.ImageSize) != Ref.Image.Image)
          Smp.Failure = "image differs from compileModuleSequential";
      }
      if (R < DaemonPrefix)
        Dets[C].add(Ref);
      if (S.Opt.Trace && R < DaemonReplays)
        ReplayRefs[C].push_back(std::move(Ref));
    }
  });
  for (unsigned C = 0; C != Conns; ++C) {
    for (Sample &Smp : PerConn[C])
      S.Samples.push_back(std::move(Smp));
    S.Det.merge(Dets[C]);
  }

  if (!S.Opt.Trace)
    return;
  // The replay mirrors one connection's history against its own cache:
  // the first full compile fills it, then each edit hits five functions
  // and compiles one.
  obs::TraceRecorder Rec(obs::ClockDomain::Steady);
  Replayer Replay(S.Opt.Recount ? nullptr : &Rec, S.MM);
  for (unsigned C = 0; C != Conns; ++C) {
    cache::CompileCache Cache(cache::CacheMode::Memory,
                              cache::CacheContext::forModel(S.MM));
    EditableModule M(S.Opt.Seed, C);
    Replay.setRecording(false);
    Replay.replay(M.source(), &Cache, false);
    for (unsigned R = 0; R != DaemonReplays; ++R) {
      M.applyEdit(R);
      Replay.setRecording(C == 0 && R < TracedModules);
      S.Replays.push_back(Replay.replay(M.source(), &Cache, false));
      checkReplay(S, S.Replays.back(), ReplayRefs[C][R],
                  "replay of connection " + std::to_string(C) + " request " +
                      std::to_string(R));
    }
  }
  if (!S.Opt.Recount)
    writeTrace(S, Rec);
}

void runDaemon(RunState &S) {
  if (S.Opt.Recount) {
    std::vector<std::vector<Sample>> NoSamples(S.Workers);
    std::vector<std::unique_ptr<Spool>> NoSpools;
    checkDaemon(S, NoSamples, NoSpools);
    return;
  }
  Daemon D;
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    if (Rep != 0)
      D = Daemon();
    const Clock::time_point T0 = Clock::now();
    const std::string Error = startDaemon(S, D, Rep);
    S.SetupSec.push_back(secondsBetween(T0, Clock::now()));
    if (!Error.empty()) {
      S.Failures.push_back(Error);
      D.stop();
      return;
    }
    if (Rep + 1 != SetupRepeats)
      D.stop();
  }

  // The timed window: each connection is its own closed loop.
  const unsigned Conns = S.Workers;
  std::vector<std::vector<Sample>> PerConn(Conns);
  std::vector<std::unique_ptr<Spool>> Spools;
  for (unsigned C = 0; C != Conns; ++C) {
    Spools.push_back(std::make_unique<Spool>(
        S.Opt.OutDir + "/spool-" + std::to_string(::getpid()) + "-" +
        std::to_string(C) + ".bin"));
    if (!Spools.back()->ok()) {
      S.Failures.push_back("cannot create the image spool");
      D.stop();
      return;
    }
  }
  std::vector<Clock::time_point> LastDone(Conns);
  std::atomic<unsigned> Completed{0};
  std::atomic<double> RssAtCount{0.0};
  const double Cpu0 = cpuSeconds();
  const Clock::time_point Start = Clock::now();
  std::vector<std::thread> Loops;
  for (unsigned C = 0; C != Conns; ++C)
    Loops.emplace_back([&, C] {
      LastDone[C] = Start;
      for (unsigned R = 0; secondsBetween(Start, Clock::now()) < S.Opt.Seconds;
           ++R) {
        D.Modules[C].applyEdit(R);
        service::wire::CompileRequestMsg Req;
        Req.RequestId = 2 + DaemonWarmUps + R;
        Req.ModuleSource = D.Modules[C].source();
        Sample Smp;
        Smp.Module = R;
        Smp.Traced = S.Opt.Trace && R % 2 == 1;
        if (Smp.Traced)
          Req.TraceId = (mixSeed(S.Opt.Seed, 7 + C, R) >> 1) | 1;
        service::RequestOutcome Out;
        std::string Error;
        const Clock::time_point T0 = Clock::now();
        const bool Ok = D.Clients[C]->compile(Req, Out, Error, 60.0);
        LastDone[C] = Clock::now();
        Smp.LatencySec = secondsBetween(T0, LastDone[C]);
        if (!Ok) {
          Smp.Failure = "transport: " + Error;
          PerConn[C].push_back(std::move(Smp));
          break;
        }
        Smp.Rejected = !Out.Accepted;
        Smp.QueueSec = Out.Result.QueueSec;
        Smp.ExecSec = Out.Result.CompileSec;
        Smp.CacheHits = Out.Result.CacheHits;
        Smp.CacheMisses = Out.Result.CacheMisses;
        if (Smp.Rejected)
          Smp.Failure = "rejected: " + Out.Reject.Detail;
        else if (Out.Result.Status != 0)
          Smp.Failure = "compile status " + std::to_string(Out.Result.Status) +
                        ": " + Out.Result.DiagText;
        else if (Out.Result.EngineUsed != "sequential")
          Smp.Failure = "engine used was '" + Out.Result.EngineUsed + "'";
        Smp.ImageSize = Out.Result.Image.size();
        Smp.SpoolOffset = Spools[C]->append(Out.Result.Image);
        PerConn[C].push_back(std::move(Smp));
        if (++Completed == RssAfterCompiles)
          RssAtCount = peakRssMb();
      }
    });
  for (std::thread &T : Loops)
    T.join();
  Clock::time_point End = Start;
  for (const Clock::time_point &T : LastDone)
    End = std::max(End, T);
  S.WindowSec = secondsBetween(Start, End);
  S.CpuSec = cpuSeconds() - Cpu0;
  S.PeakRssMb = Completed >= RssAfterCompiles ? RssAtCount.load() : peakRssMb();
  D.stop();
  checkDaemon(S, PerConn, Spools);
}

//===-- Metrics -----------------------------------------------------------===//

std::vector<double> latencies(const RunState &S, bool Traced) {
  std::vector<double> V;
  for (const Sample &Smp : S.Samples)
    if (Smp.Traced == Traced)
      V.push_back(Smp.LatencySec);
  return V;
}

template <typename Fn>
std::vector<double> perSample(const RunState &S, Fn &&Get) {
  std::vector<double> V;
  for (const Sample &Smp : S.Samples)
    if (!Smp.Traced)
      V.push_back(Get(Smp));
  return V;
}

template <typename Fn>
double replayMedian(const RunState &S, Fn &&Get) {
  std::vector<double> V;
  for (const ModuleReplay &R : S.Replays)
    V.push_back(static_cast<double>(Get(R)));
  return median(std::move(V));
}

/// The least fan-out time \p Workers workers need for R's functions:
/// max(largest, sum / workers), which is the sum for one worker.
double fanoutSec(const ModuleReplay &R, unsigned Workers) {
  double Sum = 0, Max = 0;
  for (double C : R.FunctionCostSec) {
    Sum += C;
    Max = std::max(Max, C);
  }
  return std::max(Max, Sum / Workers);
}

/// Phase 1, then the function fan-out, then phase 4: the pipeline the
/// replayed layer times predict for one module.
double composedSec(const RunState &S, const ModuleReplay &R) {
  return R.Phase1Sec + fanoutSec(R, S.daemon() ? 1 : S.Workers) +
         R.Phase4Sec;
}

json::Value endToEnd(const RunState &S, unsigned Attempted, unsigned Failed) {
  const std::vector<double> Lat = latencies(S, false);
  const double Done = static_cast<double>(S.Samples.size());
  json::Value M = json::Value::object();
  M.set("compile_s.p50", quantile(Lat, 0.5));
  M.set("compile_s.p95", quantile(Lat, 0.95));
  M.set("modules_per_s", S.WindowSec > 0 ? Done / S.WindowSec : 0.0);
  M.set("cpu_s_per_module", Done > 0 ? S.CpuSec / Done : 0.0);
  M.set("peak_rss_mb", S.PeakRssMb);
  M.set("setup_s", median(S.SetupSec));
  M.set("code_words_per_module", S.Det.codeWordsPerModule());
  M.set("failed_frac", Attempted ? static_cast<double>(Failed) / Attempted
                                 : 0.0);
  return M;
}

json::Value perLayer(const RunState &S) {
  json::Value M = json::Value::object();
  auto LayerMedian = [&](Layer L) {
    return replayMedian(S, [L](const ModuleReplay &R) {
      return R.LayerSec[static_cast<size_t>(L)];
    });
  };
  using WM = driver::WorkMetrics;
  // Per module, the sum of one work count over the functions compiled.
  auto CompiledMedian = [&](uint64_t WM::*Field) {
    return replayMedian(S, [Field](const ModuleReplay &R) {
      uint64_t Sum = 0;
      for (const WM &W : R.Compiled)
        Sum += W.*Field;
      return Sum;
    });
  };

  M.set("w2.lex_s", LayerMedian(Layer::Lex));
  M.set("w2.parse_s", LayerMedian(Layer::Parse));
  M.set("w2.sema_s", LayerMedian(Layer::Sema));
  M.set("w2.tokens", replayMedian(S, [](const ModuleReplay &R) {
          return R.Phase1.Tokens;
        }));
  M.set("w2.ast_nodes", replayMedian(S, [](const ModuleReplay &R) {
          return R.Phase1.AstNodes;
        }));

  M.set("ir.lower_s", LayerMedian(Layer::Lower));
  M.set("ir.verify_s", LayerMedian(Layer::Verify));
  M.set("ir.instrs", CompiledMedian(&WM::IRInstrs));

  M.set("opt.fold_s", LayerMedian(Layer::Fold));
  M.set("opt.copyprop_s", LayerMedian(Layer::CopyProp));
  M.set("opt.cse_s", LayerMedian(Layer::CSE));
  M.set("opt.dse_s", LayerMedian(Layer::DSE));
  M.set("opt.dce_s", LayerMedian(Layer::DCE));
  M.set("opt.unreachable_s", LayerMedian(Layer::Unreachable));
  M.set("opt.sweeps",
        replayMedian(S, [](const ModuleReplay &R) { return R.Sweeps; }));
  M.set("opt.transforms", CompiledMedian(&WM::OptTransforms));
  M.set("opt.instrs_after", replayMedian(S, [](const ModuleReplay &R) {
          return R.InstrsAfterOpt;
        }));
  M.set("opt.liveness_s", LayerMedian(Layer::Liveness));
  M.set("opt.reachdefs_s", LayerMedian(Layer::ReachDefs));
  M.set("opt.dataflow_iterations", CompiledMedian(&WM::DataflowIterations));

  M.set("codegen.loopinfo_s", LayerMedian(Layer::LoopInfo));
  M.set("codegen.dependence_s", LayerMedian(Layer::Dependence));
  M.set("codegen.modulo_s", LayerMedian(Layer::Modulo));
  M.set("codegen.modulo_attempts", CompiledMedian(&WM::ModuloSchedAttempts));
  M.set("codegen.recmii_work", CompiledMedian(&WM::RecMIIWork));
  M.set("codegen.pipelined_ratio", replayMedian(S, [](const ModuleReplay &R) {
          return R.LoopsConsidered
                     ? static_cast<double>(R.LoopsPipelined) / R.LoopsConsidered
                     : 0.0;
        }));
  M.set("codegen.ii_over_mii", replayMedian(S, [](const ModuleReplay &R) {
          return R.LoopsPipelined ? R.IIOverMIISum / R.LoopsPipelined : 0.0;
        }));
  M.set("codegen.list_s", LayerMedian(Layer::List));
  M.set("codegen.list_attempts", CompiledMedian(&WM::ListSchedAttempts));
  M.set("codegen.regalloc_s", LayerMedian(Layer::RegAlloc));
  M.set("codegen.regalloc_work", CompiledMedian(&WM::RegAllocWork));
  M.set("codegen.spills",
        replayMedian(S, [](const ModuleReplay &R) { return R.Spills; }));

  M.set("asmout.assemble_s", LayerMedian(Layer::Assemble));
  M.set("asmout.link_s", LayerMedian(Layer::Link));
  M.set("asmout.image_bytes", replayMedian(S, [](const ModuleReplay &R) {
          return R.Image.size();
        }));

  // Driver: the pipeline the layers compose into.
  std::vector<double> FnSec;
  for (const ModuleReplay &R : S.Replays)
    FnSec.insert(FnSec.end(), R.FunctionSec.begin(), R.FunctionSec.end());
  M.set("driver.phase1_s",
        replayMedian(S, [](const ModuleReplay &R) { return R.Phase1Sec; }));
  M.set("driver.function_s.p50", median(FnSec));
  M.set("driver.function_s.max", replayMedian(S, [](const ModuleReplay &R) {
          double Max = 0;
          for (double F : R.FunctionSec)
            Max = std::max(Max, F);
          return Max;
        }));
  M.set("driver.phase4_s",
        replayMedian(S, [](const ModuleReplay &R) { return R.Phase4Sec; }));
  M.set("driver.model_work",
        replayMedian(S, [](const ModuleReplay &R) { return R.modelWork(); }));
  // Measured over the replayed modules only (every daemon request is
  // alike, so there all of them).
  std::vector<double> ReplayedLat;
  for (const Sample &X : S.Samples)
    if (!X.Traced && (S.daemon() || X.Module < S.Replays.size()))
      ReplayedLat.push_back(X.LatencySec);
  const double Composed = replayMedian(
      S, [&](const ModuleReplay &R) { return composedSec(S, R); });
  const double ReplayedP50 = median(ReplayedLat);
  M.set("driver.trace_coverage",
        ReplayedP50 > 0 ? Composed / ReplayedP50 : 0.0);

  // Parallel engines (the daemon's sequential engine bypasses them).
  const bool Pool = !S.daemon();
  auto PoolMedian = [&](auto Get) {
    return Pool ? median(perSample(S, Get)) : 0.0;
  };
  M.set("parallel.phase1_s",
        PoolMedian([](const Sample &X) { return X.Phase1Sec; }));
  M.set("parallel.fanout_s",
        PoolMedian([](const Sample &X) { return X.FanoutSec; }));
  M.set("parallel.phase4_s",
        PoolMedian([](const Sample &X) { return X.Phase4Sec; }));
  // Pool workloads replay module K as Replays[K], for the first
  // ReplayedModules modules.
  std::vector<double> FanoutOverhead;
  for (const Sample &X : S.Samples) {
    if (!Pool || X.Traced || X.Module >= S.Replays.size())
      continue;
    FanoutOverhead.push_back(X.FanoutSec -
                             fanoutSec(S.Replays[X.Module], S.Workers));
  }
  M.set("parallel.fanout_overhead_s", median(FanoutOverhead));
  M.set("parallel.workers_spawned",
        PoolMedian([](const Sample &X) { return double(X.Workers); }));
  double Retries = 0, Fallbacks = 0;
  for (const Sample &X : S.Samples) {
    Retries += X.Retries;
    Fallbacks += X.Recovered;
  }
  M.set("parallel.retries", Retries);
  M.set("parallel.master_fallbacks", Fallbacks);
  const bool Codec = S.process();
  M.set("parallel.result_bytes",
        Codec ? replayMedian(
                    S, [](const ModuleReplay &R) { return R.ResultBytes; })
              : 0.0);
  M.set("parallel.result_encode_s",
        Codec ? LayerMedian(Layer::ResultEncode) : 0.0);
  M.set("parallel.result_decode_s",
        Codec ? LayerMedian(Layer::ResultDecode) : 0.0);

  // Cache and service: only the daemon workload runs them.
  double Hits = 0, Lookups = 0;
  for (const Sample &X : S.Samples) {
    Hits += static_cast<double>(X.CacheHits);
    Lookups += static_cast<double>(X.CacheHits + X.CacheMisses);
  }
  M.set("cache.hit_ratio", Lookups > 0 ? Hits / Lookups : 0.0);
  M.set("cache.fingerprint_s", LayerMedian(Layer::Fingerprint));
  M.set("cache.lookup_s", LayerMedian(Layer::Lookup));
  M.set("cache.store_s", LayerMedian(Layer::Store));
  M.set("cache.entry_bytes", replayMedian(S, [](const ModuleReplay &R) {
          return R.CacheEntryBytes;
        }));
  const bool Svc = S.daemon();
  auto SvcQuantile = [&](auto Get, double Q) {
    return Svc ? quantile(perSample(S, Get), Q) : 0.0;
  };
  M.set("service.queue_s.p50",
        SvcQuantile([](const Sample &X) { return X.QueueSec; }, 0.5));
  M.set("service.queue_s.p95",
        SvcQuantile([](const Sample &X) { return X.QueueSec; }, 0.95));
  M.set("service.exec_s.p50",
        SvcQuantile([](const Sample &X) { return X.ExecSec; }, 0.5));
  M.set("service.transport_s.p50", SvcQuantile([](const Sample &X) {
          return X.LatencySec - X.QueueSec - X.ExecSec;
        }, 0.5));
  double Rejected = 0;
  for (const Sample &X : S.Samples)
    Rejected += X.Rejected ? 1 : 0;
  M.set("service.rejected", Rejected);

  const double UntracedP50 = median(latencies(S, false));
  const double TracedP50 = median(latencies(S, true));
  M.set("trace.overhead", UntracedP50 > 0 ? TracedP50 / UntracedP50 : 0.0);
  return M;
}

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const std::string Value = Argv[++I];
    if (Flag == "--workload")
      O.Workload = Value;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Flag == "--trace")
      O.Trace = Value == "1";
    else if (Flag == "--out")
      O.OutDir = Value;
    else if (Flag == "--recount")
      O.Recount = Value == "1";
    else
      return false;
  }
  return (O.Workload == "small_fns_thread" ||
          O.Workload == "user_prog_process" ||
          O.Workload == "daemon_edit_cache") &&
         O.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  RunState S;
  if (!parseOptions(Argc, Argv, S.Opt)) {
    std::fprintf(stderr,
                 "usage: warp-bench --workload small_fns_thread|"
                 "user_prog_process|daemon_edit_cache --seed N --seconds S "
                 "[--trace 0|1] [--recount 0|1] [--out DIR]\n");
    return 2;
  }
  S.Workers = std::min(4u, availableCpus());

  if (!S.Opt.Recount)
    spinUp(S);
  if (S.daemon())
    runDaemon(S);
  else
    runPool(S);

  // compile_s.p95 must rest on enough of the slowest samples. A traced
  // run reports no p95 and times only half its samples untraced.
  const std::vector<double> Lat = latencies(S, false);
  const size_t BeyondP95 = countAbove(Lat, quantile(Lat, 0.95));
  if (!S.Opt.Recount && !S.Opt.Trace && BeyondP95 < MinBeyondP95)
    S.Failures.push_back("only " + std::to_string(BeyondP95) +
                         " samples beyond compile_s.p95 (need " +
                         std::to_string(MinBeyondP95) + ")");

  std::vector<std::string> Reasons = S.Failures;
  Reasons.insert(Reasons.end(), S.ReplayFailures.begin(),
                 S.ReplayFailures.end());
  for (const Sample &Smp : S.Samples)
    if (!Smp.Failure.empty())
      Reasons.push_back(Smp.Failure);
  const unsigned Failed = static_cast<unsigned>(Reasons.size());
  const unsigned Attempted = static_cast<unsigned>(
      S.Samples.size() + S.ReplaysAttempted + S.Failures.size());
  if (Reasons.size() > 20)
    Reasons.resize(20);

  json::Value Doc = json::Value::object();
  Doc.set("workload", S.Opt.Workload);
  Doc.set("seed", S.Opt.Seed);
  Doc.set("trace", S.Opt.Trace ? 1 : 0);
  Doc.set("correct", Failed == 0 && (S.Opt.Recount || !S.Samples.empty()));
  Doc.set("attempted", Attempted);
  Doc.set("failed", Failed);
  json::Value Why = json::Value::array();
  for (const std::string &R : Reasons)
    Why.push(R);
  Doc.set("failures", std::move(Why));
  json::Value Cond = json::Value::object();
  Cond.set("workers", S.Workers);
#ifdef NDEBUG
  Cond.set("asserts", false);
#else
  Cond.set("asserts", true);
#endif
  Cond.set("build_type", PERFBENCH_BUILD_TYPE);
  Cond.set("samples", static_cast<uint64_t>(Lat.size()));
  Cond.set("samples_beyond_p95", static_cast<uint64_t>(BeyondP95));
  Cond.set("window_s", S.WindowSec);
  json::Value Setups = json::Value::array();
  for (double X : S.SetupSec)
    Setups.push(X);
  Cond.set("setup_s_each", std::move(Setups));
  Doc.set("conditions", std::move(Cond));
  Doc.set("determinism", S.Det.toJson());
  Doc.set("end_to_end", endToEnd(S, Attempted, Failed));
  if (S.Opt.Trace) {
    Doc.set("per_layer", perLayer(S));
    Doc.set("trace_file", S.TracePath);
  }
  std::printf("%s\n", Doc.dump().c_str());
  return 0;
}
