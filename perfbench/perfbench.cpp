//===- perfbench/perfbench.cpp - depflow-bench helper ----------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// The in-process half of depflow-bench (perfbench/run.py drives it; see
// perfbench/README.md). depflow-opt itself is the program under test and
// is only ever run as a child process; this helper does the work around
// it:
//
//   depflow-perfbench gen-module mixed|call FUNCS SEED OUT
//       writes a generated module to OUT. For `call` it also draws a slice
//       criterion and an input vector the way `depflow-fuzz --slice-oracle`
//       does (redrawing until the original halts) and prints them.
//   depflow-perfbench check pipeline INPUT OUTPUT SEED
//   depflow-perfbench check slice INPUT OUTPUT CRITERION INPUTS
//       parses and verifies INPUT, then checks depflow-opt's OUTPUT against
//       it with the interpreter: diffExecutions per function for a pass
//       pipeline, the watch-trace slice oracle for a backward slice.
//   depflow-perfbench layers PASSES|- JOBS SECONDS MANIFEST
//       the traced per-layer run: repeats one depflow-opt op in-process,
//       calling each layer's public functions in depflow-opt's order and
//       timing each from outside, with obs::TraceRecorder on for a second
//       copy of the op, plus the kernels on the workload's own functions.
//       Prints one JSON object of per-op medians.
//
// Exit codes: 0 ok, 1 a check failed, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "cdg/ControlDependence.h"
#include "core/DepFlowGraph.h"
#include "dataflow/Anticipatability.h"
#include "dataflow/ConstantPropagation.h"
#include "dataflow/PRE.h"
#include "interp/Interpreter.h"
#include "ir/CFGEdges.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "ir/Verifier.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pass/ModulePipeline.h"
#include "pass/PassPipeline.h"
#include "sdg/Slicer.h"
#include "sdg/SystemDependenceGraph.h"
#include "structure/CycleEquivalence.h"
#include "structure/SESE.h"
#include "support/RNG.h"
#include "support/Statistic.h"
#include "verify/DiffOracle.h"
#include "workload/Generators.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace depflow;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

int fail(const std::string &Msg) {
  std::fprintf(stderr, "depflow-perfbench: %s\n", Msg.c_str());
  return 1;
}

/// Parses \p Text and runs the verifier on every function, as depflow-opt
/// does before its pipeline. Empty on success, else the first problem.
std::string parseAndVerify(const std::string &Text,
                           std::unique_ptr<Module> &Out) {
  ParseModuleResult R = parseModule(Text);
  if (!R.ok())
    return "parse error: " + R.Error + " (line " +
           std::to_string(R.ErrorLine) + ")";
  for (const auto &F : R.M->functions())
    for (const std::string &Err : verifyFunction(*F))
      return "verifier: " + F->name() + ": " + Err;
  Out = std::move(R.M);
  return "";
}

bool parseInputs(const std::string &Text, std::vector<std::int64_t> &Out) {
  std::stringstream SS(Text);
  std::string Tok;
  while (std::getline(SS, Tok, ',')) {
    if (Tok.empty())
      return false;
    Out.push_back(std::strtoll(Tok.c_str(), nullptr, 10));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// gen-module
//===----------------------------------------------------------------------===//

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return bool(Out);
}

int cmdGenModule(const std::string &Kind, unsigned Funcs, std::uint64_t Seed,
                 const std::string &OutPath) {
  RNG Rand(Seed);
  if (Kind != "call") {
    std::unique_ptr<Module> Gen = generateModule(Funcs, Rand.next());
    return writeFile(OutPath, printModule(*Gen)) ? 0
                                                 : fail("cannot write " + OutPath);
  }

  // The criterion is drawn as depflow-fuzz --slice-oracle draws one: a
  // random function, then a random instruction the watch point observes,
  // with eight inputs in [-8, 8]. Lines come from the printed text, which
  // is exactly what depflow-opt parses. A draw whose reference run does not
  // halt gives no ground truth, so inputs (and, failing that, the module)
  // are redrawn. The draw asks for a halt within a tenth of the check's
  // step budget: a failed try then costs little, so set-up time hardly
  // depends on how many tries a seed needs.
  ModuleExecOptions EO;
  EO.MaxSteps = 20000;
  for (unsigned ModuleTry = 0; ModuleTry != 16; ++ModuleTry) {
    std::unique_ptr<Module> Gen = generateCallModule(Funcs, Rand.next());
    const std::string Text = printModule(*Gen);
    ParseModuleResult PR = parseModule(Text);
    if (!PR.ok())
      return fail("generated call module failed to re-parse: " + PR.Error);
    const Module &M = *PR.M;
    std::vector<std::int64_t> Inputs;
    bool Halts = false;
    for (unsigned InputTry = 0; InputTry != 8 && !Halts; ++InputTry) {
      Inputs.clear();
      for (unsigned K = 0; K != 8; ++K)
        Inputs.push_back(Rand.nextInRange(-8, 8));
      Halts = runModule(M, *M.function(0), Inputs, EO).Halted;
    }
    if (!Halts)
      continue;
    std::string Chosen;
    for (unsigned CritTry = 0; CritTry != 64 && Chosen.empty(); ++CritTry) {
      const Function &CF =
          *M.function(unsigned(Rand.nextBelow(M.numFunctions())));
      std::vector<const Instruction *> Cands;
      for (const auto &BB : CF.blocks())
        for (const auto &I : BB->instructions())
          if (I->line() && (I->isDefinition() || isa<CondBrInst>(I.get()) ||
                            isa<RetInst>(I.get())))
            Cands.push_back(I.get());
      if (!Cands.empty())
        Chosen = CF.name() + ":" +
                 std::to_string(Cands[Rand.nextBelow(Cands.size())]->line());
    }
    if (Chosen.empty())
      continue;
    if (!writeFile(OutPath, Text))
      return fail("cannot write " + OutPath);
    std::string Line = Chosen + " ";
    for (std::size_t K = 0; K != Inputs.size(); ++K)
      Line += (K ? "," : "") + std::to_string((long long)Inputs[K]);
    std::printf("%s\n", Line.c_str());
    return 0;
  }
  return fail("no halting call module with a slice criterion found");
}

//===----------------------------------------------------------------------===//
// check
//===----------------------------------------------------------------------===//

void printCheck(bool Ok, unsigned Instructions, unsigned Functions,
                const std::string &Detail) {
  std::string Out;
  obs::JsonWriter W(Out);
  W.beginObject();
  W.keyValue("ok", Ok);
  W.keyValue("instructions", Instructions);
  W.keyValue("functions", Functions);
  W.keyValue("detail", std::string_view(Detail));
  W.endObject();
  std::printf("%s\n", Out.c_str());
}

int cmdCheckPipeline(const std::string &InPath, const std::string &OutPath,
                     std::uint64_t Seed) {
  std::string InText, OutText;
  if (!readFile(InPath, InText) || !readFile(OutPath, OutText))
    return fail("cannot read " + InPath + " or " + OutPath);
  std::unique_ptr<Module> Orig, Opt;
  if (std::string E = parseAndVerify(InText, Orig); !E.empty())
    return fail(InPath + ": " + E);
  const unsigned Instrs = Orig->numInstructions();
  if (std::string E = parseAndVerify(OutText, Opt); !E.empty()) {
    printCheck(false, Instrs, Orig->numFunctions(), "output: " + E);
    return 1;
  }
  if (Opt->numFunctions() != Orig->numFunctions()) {
    printCheck(false, Instrs, Orig->numFunctions(),
               "output has a different number of functions");
    return 1;
  }
  RNG Rand(Seed);
  unsigned Checked = 0;
  for (unsigned I = 0; I != Orig->numFunctions(); ++I) {
    const Function &A = *Orig->function(I), &B = *Opt->function(I);
    if (A.name() != B.name()) {
      printCheck(false, Instrs, Orig->numFunctions(),
                 "function order differs at " + A.name());
      return 1;
    }
    OracleOptions OO;
    OO.Runs = 4;
    Status S = diffExecutions(A, B, Rand, OO);
    if (!S.ok()) {
      printCheck(false, Instrs, Orig->numFunctions(),
                 A.name() + ": " + S.str());
      return 1;
    }
    ++Checked;
  }
  printCheck(true, Instrs, Orig->numFunctions(),
             std::to_string(Checked) + " functions agree with the original");
  return 0;
}

int cmdCheckSlice(const std::string &InPath, const std::string &OutPath,
                  const std::string &CritText, const std::string &InputText) {
  std::string InText, OutText;
  if (!readFile(InPath, InText) || !readFile(OutPath, OutText))
    return fail("cannot read " + InPath + " or " + OutPath);
  std::unique_ptr<Module> Orig, Sliced;
  if (std::string E = parseAndVerify(InText, Orig); !E.empty())
    return fail(InPath + ": " + E);
  const unsigned Instrs = Orig->numInstructions();
  SliceCriterion Crit;
  std::vector<std::int64_t> Inputs;
  if (!parseSliceCriterion(CritText, Crit).ok() ||
      !parseInputs(InputText, Inputs))
    return fail("bad criterion or inputs");
  if (std::string E = parseAndVerify(OutText, Sliced); !E.empty()) {
    printCheck(false, Instrs, Orig->numFunctions(), "slice: " + E);
    return 1;
  }
  ModuleExecOptions EO;
  EO.MaxSteps = 200000;
  EO.WatchFunc = Crit.Func;
  EO.WatchLine = Crit.Line;
  ExecResult Ref = runModule(*Orig, *Orig->function(0), Inputs, EO);
  ExecResult Got = runModule(*Sliced, *Sliced->function(0), Inputs, EO);
  std::string Detail;
  if (!Ref.Halted)
    Detail = "original did not halt: " + Ref.status().str();
  else if (!Got.Halted)
    Detail = "slice did not halt: " + Got.status().str();
  else if (Got.WatchTrace != Ref.WatchTrace)
    Detail = "watch trace diverges at the criterion";
  if (!Detail.empty()) {
    printCheck(false, Instrs, Orig->numFunctions(), Detail);
    return 1;
  }
  printCheck(true, Instrs, Orig->numFunctions(),
             "slice reproduces " + std::to_string(Ref.WatchTrace.size()) +
                 " watched values; kept " +
                 std::to_string(Sliced->numInstructions()) + " of " +
                 std::to_string(Instrs) + " instructions");
  return 0;
}

//===----------------------------------------------------------------------===//
// layers
//===----------------------------------------------------------------------===//

struct ManifestEntry {
  std::string Input;     // The module depflow-opt reads.
  std::string Reference; // depflow-opt's checked -j 1 output for it.
  std::string Criterion; // --slice criterion; empty for a pass pipeline.
};

/// One repetition's value per metric; medians are taken at the end.
using Samples = std::map<std::string, std::vector<double>>;

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double percentile90(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  return V[std::min(V.size() - 1, std::size_t(0.9 * double(V.size())))];
}

/// Per registered statistic, the number of updates it has taken so far,
/// as far as the registry shows it: a counter's value, a histogram's sample
/// count. Max gauges keep no count and are left out.
std::map<std::string, std::uint64_t> statUpdates() {
  std::map<std::string, std::uint64_t> Out;
  for (const StatisticSnapshot &S : statisticsSnapshot()) {
    if (S.Kind == StatKind::Counter)
      Out[S.Group + "." + S.Name] = S.Value;
    else if (S.Kind == StatKind::Histogram)
      Out[S.Group + "." + S.Name] = S.Count;
  }
  return Out;
}

/// What one in-process copy of the op measured.
struct OpResult {
  std::string Error;  // Non-empty: the op failed.
  std::string Output; // What depflow-opt would print.
  double ParseMs = 0, VerifyMs = 0, PipelineMs = 0, PrintMs = 0;
  double SDGBuildMs = 0, SliceMs = 0, ExtractMs = 0;
  ModulePipelineResult PR;
  unsigned Workers = 1;
  unsigned SDGNodes = 0, SummaryEdges = 0;
  double KeptFrac = 0;
};

/// One depflow-opt op in-process, in depflow-opt's order: parse, verify +
/// hygiene, pipeline, then either the SDG slice or the module print.
OpResult runOp(const std::string &Text, const PassPipeline *Pipe,
               const std::string &CritText, unsigned Jobs) {
  OpResult R;
  auto T = Clock::now();
  ParseModuleResult P = parseModule(Text);
  R.ParseMs = msSince(T);
  if (!P.ok()) {
    R.Error = "parse error: " + P.Error;
    return R;
  }
  Module &M = *P.M;

  // depflow-opt prints the hygiene warnings; here they are only computed.
  T = Clock::now();
  for (const auto &F : M.functions())
    if (!verifyFunction(*F).empty()) {
      R.Error = "verifier rejected " + F->name();
      return R;
    }
  for (const auto &F : M.functions())
    (void)verifyDefUseHygiene(*F);
  R.VerifyMs = msSince(T);

  if (Pipe) {
    ModulePipelineOptions MPO;
    MPO.Jobs = Jobs;
    R.Workers = std::min(Jobs, M.numFunctions());
    T = Clock::now();
    R.PR = runPipelineOnModule(M, *Pipe, MPO);
    R.PipelineMs = msSince(T);
    if (!R.PR.ok()) {
      R.Error = "pipeline failed: " + R.PR.combinedStatus().str();
      return R;
    }
  }

  if (!CritText.empty()) {
    SliceCriterion Crit;
    if (!parseSliceCriterion(CritText, Crit).ok() ||
        !verifyModuleCalls(M).empty()) {
      R.Error = "module cannot be sliced at " + CritText;
      return R;
    }
    SDGBuildOptions SO;
    SO.Jobs = Jobs;
    T = Clock::now();
    SystemDependenceGraph G = SystemDependenceGraph::build(M, SO);
    R.SDGBuildMs = msSince(T);
    R.SDGNodes = G.stats().Nodes;
    R.SummaryEdges = G.stats().SummaryEdges;
    T = Clock::now();
    std::vector<unsigned> Nodes;
    if (!resolveCriterion(G, Crit, Nodes).ok()) {
      R.Error = "criterion " + CritText + " does not resolve";
      return R;
    }
    std::vector<char> Marks = sliceSDG(G, Nodes, SliceDirection::Backward);
    R.SliceMs = msSince(T);
    T = Clock::now();
    std::unique_ptr<Module> Sliced = extractBackwardSlice(M, G, Marks);
    R.ExtractMs = msSince(T);
    R.KeptFrac = double(Sliced->numInstructions()) /
                 double(std::max(1u, M.numInstructions()));
    T = Clock::now();
    R.Output = printModule(*Sliced);
    R.PrintMs = msSince(T);
  } else {
    T = Clock::now();
    R.Output = printModule(M);
    R.PrintMs = msSince(T);
  }
  return R;
}

/// Self time per span: its duration minus the durations of the spans
/// directly nested in it on the same thread.
void addSelfTimes(const std::vector<obs::TraceEvent> &Events,
                  std::map<std::string, double> &SelfMs) {
  struct Open {
    const obs::TraceEvent *E;
    double ChildUs;
  };
  std::map<std::uint32_t, std::vector<Open>> Stacks;
  auto Close = [&](const Open &O) {
    std::string Key = O.E->Category;
    Key += '/';
    const std::string &N = O.E->Name;
    // Task spans carry the function or SCC name; aggregate by kind.
    Key += N.substr(0, N.find(':'));
    SelfMs[Key] += (O.E->DurUs - O.ChildUs) / 1000.0;
  };
  for (const obs::TraceEvent &E : Events) {
    if (E.DurUs < 0)
      continue;
    std::vector<Open> &S = Stacks[E.Tid];
    while (!S.empty() && S.back().E->TsUs + S.back().E->DurUs <= E.TsUs) {
      Close(S.back());
      S.pop_back();
    }
    if (!S.empty())
      S.back().ChildUs += E.DurUs;
    S.push_back({&E, 0});
  }
  for (auto &[Tid, S] : Stacks)
    for (const Open &O : S)
      Close(O);
}

/// The paper's kernels, called directly on the workload's own functions
/// (after `separate` when the pipeline starts with it, and with critical
/// edges split as the pre pass does), summed over the module.
void runKernels(const std::string &Text, bool Separate, Samples &Out) {
  ParseModuleResult P = parseModule(Text);
  if (!P.ok())
    return;
  double CEMs = 0, SESEMs = 0, DFGMs = 0, CDGMs = 0, CPMs = 0, PREMs = 0;
  double Edges = 0, Solves = 0;
  for (const auto &FP : P.M->functions()) {
    Function &F = *FP;
    if (Separate)
      separateComputation(F);
    splitCriticalEdges(F);
    F.recomputePreds();
    CFGEdges E(F);
    auto T = Clock::now();
    CycleEquivalence CE = cycleEquivalenceClasses(F, E);
    CEMs += msSince(T);
    T = Clock::now();
    ProgramStructureTree PST(F, E, CE);
    SESEMs += msSince(T);
    T = Clock::now();
    FactoredCDG CDG = buildFactoredCDG(F, E, CE);
    CDGMs += msSince(T);
    T = Clock::now();
    DepFlowGraph G = DepFlowGraph::build(F, E, PST);
    DFGMs += msSince(T);
    Edges += G.numEdges();
    T = Clock::now();
    ConstPropResult CP;
    (void)runConstantPropagation(F, &G, EvalMode::SparseDFG, CP);
    CPMs += msSince(T);
    // The pre pass's per-expression solves, without applying any motion.
    T = Clock::now();
    for (const Expression &Ex : collectExpressions(F)) {
      std::vector<bool> Ant;
      if (!runExpressionAnticipatability(F, E, &G, Ex, EvalMode::SparseDFG,
                                         Ant)
               .ok())
        continue;
      PREDecisions D;
      (void)runPRE(F, E, Ex, Ant, PREStrategy::MorelRenvoise, D);
      ++Solves;
    }
    PREMs += msSince(T);
  }
  Out["structure.cycle_equiv_ms"].push_back(CEMs);
  Out["structure.sese_ms"].push_back(SESEMs);
  Out["cdg.factored_cdg_ms"].push_back(CDGMs);
  Out["core.dfg_build_ms"].push_back(DFGMs);
  Out["core.dfg_edges"].push_back(Edges);
  Out["dataflow.constprop_ms"].push_back(CPMs);
  Out["dataflow.pre_solve_ms"].push_back(PREMs);
  Out["dataflow.pre_solves"].push_back(Solves);
}

int cmdLayers(const std::string &PassText, unsigned Jobs, double Seconds,
              const std::string &ManifestPath) {
  std::optional<PassPipeline> Pipe;
  if (PassText != "-") {
    Pipe.emplace();
    if (!PassPipeline::parse(PassText, *Pipe).ok())
      return fail("bad pass list " + PassText);
  }
  std::string ManifestText;
  if (!readFile(ManifestPath, ManifestText))
    return fail("cannot read " + ManifestPath);
  std::vector<ManifestEntry> Entries;
  std::vector<std::string> Texts, References;
  {
    std::stringstream SS(ManifestText);
    std::string Line;
    while (std::getline(SS, Line)) {
      std::stringstream LS(Line);
      ManifestEntry E;
      LS >> E.Input >> E.Reference >> E.Criterion;
      if (E.Criterion == "-")
        E.Criterion.clear();
      std::string Text, Ref;
      if (!readFile(E.Input, Text) || !readFile(E.Reference, Ref))
        return fail("cannot read " + E.Input + " or " + E.Reference);
      Entries.push_back(E);
      Texts.push_back(std::move(Text));
      References.push_back(std::move(Ref));
    }
  }
  if (Entries.empty())
    return fail("empty manifest");
  const bool Separate = Pipe && !Pipe->passes().empty() &&
                        Pipe->passes().front() == PassId::Separate;

  Samples S;
  std::vector<double> QueueWaitMs;
  obs::TraceRecorder &TR = obs::TraceRecorder::global();
  const auto Start = Clock::now();
  // Whole passes over the manifest only, so every input weighs the same in
  // the medians, as it does in the end-to-end loop.
  for (unsigned Iter = 0;; ++Iter) {
    if (Iter && Iter % Entries.size() == 0 && msSince(Start) >= Seconds * 1000)
      break;
    const std::size_t K = Iter % Entries.size();
    const std::string &Text = Texts[K];
    const std::string &Crit = Entries[K].Criterion;

    // Untraced copy: the phase timings, counters and allocation deltas.
    TR.setEnabled(false);
    std::map<std::string, std::uint64_t> Before = statUpdates();
    const std::uint64_t B0 = obs::processAllocatedBytes();
    const std::uint64_t C0 = obs::processAllocationCount();
    OpResult R = runOp(Text, Pipe ? &*Pipe : nullptr, Crit, Jobs);
    const std::uint64_t B1 = obs::processAllocatedBytes();
    const std::uint64_t C1 = obs::processAllocationCount();
    if (!R.Error.empty())
      return fail(Entries[K].Input + ": " + R.Error);
    if (R.Output != References[K])
      return fail(Entries[K].Input +
                  ": in-process output differs from depflow-opt's");
    double StatDelta = 0;
    for (const auto &[Name, V] : statUpdates()) {
      auto It = Before.find(Name);
      std::uint64_t Old = It == Before.end() ? 0 : It->second;
      StatDelta += double(V >= Old ? V - Old : Old - V);
    }
    S["support.stat_delta_per_op"].push_back(StatDelta);
    S["obs.alloc_mb_per_op"].push_back(double(B1 - B0) / (1024.0 * 1024.0));
    S["obs.alloc_count_per_op"].push_back(double(C1 - C0));
    S["ir.parse_ms"].push_back(R.ParseMs);
    S["ir.verify_ms"].push_back(R.VerifyMs);
    S["ir.print_ms"].push_back(R.PrintMs);
    S["layer_sum_ms"].push_back(R.ParseMs + R.VerifyMs + R.PipelineMs +
                                R.SDGBuildMs + R.SliceMs + R.ExtractMs +
                                R.PrintMs);
    S["pass.pipeline_ms"].push_back(R.PipelineMs);
    std::map<std::string, double> PassMs;
    for (const PassInstrumentation::Record &Rec : R.PR.aggregatePassRecords())
      PassMs[Rec.Pass] += Rec.Seconds * 1000.0;
    for (const char *P : {"separate", "constprop", "pre", "range", "taint",
                          "nulluse"})
      S[std::string("pass.") + P + "_ms"].push_back(PassMs[P]);
    double BusyMs = 0;
    for (const FunctionPipelineResult &FR : R.PR.Functions) {
      BusyMs += FR.TaskSeconds * 1000.0;
      QueueWaitMs.push_back((FR.StartUs - FR.EnqueueUs) / 1000.0);
    }
    S["pass.task_busy_ms"].push_back(BusyMs);
    S["pass.worker_util"].push_back(
        R.PipelineMs > 0 ? BusyMs / (R.PipelineMs * R.Workers) : 0);
    S["pass.analysis_hits"].push_back(double(R.PR.totalHits()));
    S["pass.analysis_misses"].push_back(double(R.PR.totalMisses()));
    S["sdg.build_ms"].push_back(R.SDGBuildMs);
    S["sdg.slice_ms"].push_back(R.SliceMs);
    S["sdg.extract_ms"].push_back(R.ExtractMs);
    S["sdg.nodes"].push_back(R.SDGNodes);
    S["sdg.summary_edges"].push_back(R.SummaryEdges);
    S["sdg.slice_kept_frac"].push_back(R.KeptFrac);

    // Work inflation: the same pipeline's summed task time at -j 1.
    if (Pipe) {
      OpResult R1 = runOp(Text, &*Pipe, "", 1);
      double Busy1 = 0;
      for (const FunctionPipelineResult &FR : R1.PR.Functions)
        Busy1 += FR.TaskSeconds * 1000.0;
      S["pass.work_inflation"].push_back(Busy1 > 0 ? BusyMs / Busy1 : 0);
    } else {
      S["pass.work_inflation"].push_back(0);
    }

    // Traced copy: the program's own pass/analysis/task spans give the
    // analysis and SDG-phase self times.
    TR.reset();
    TR.setEnabled(true);
    OpResult RT = runOp(Text, Pipe ? &*Pipe : nullptr, Crit, Jobs);
    TR.setEnabled(false);
    if (!RT.Error.empty())
      return fail(Entries[K].Input + ": traced op: " + RT.Error);
    std::map<std::string, double> SelfMs;
    addSelfTimes(TR.snapshot(), SelfMs);
    for (const char *A : {"cfg-edges", "cycle-equiv", "pst", "dfg",
                          "factored-cdg", "range", "taint", "nulluse"})
      S[std::string("pass.analysis.") + A + "_self_ms"].push_back(
          SelfMs[std::string("analysis/") + A]);
    S["sdg.pdg_self_ms"].push_back(SelfMs["task/pdg"]);
    S["sdg.scc_self_ms"].push_back(SelfMs["task/scc"]);

    runKernels(Text, Separate, S);
  }
  TR.reset();

  std::string Out;
  obs::JsonWriter W(Out);
  W.beginObject();
  W.keyValue("iterations", unsigned(S["ir.parse_ms"].size()));
  for (const auto &[Name, V] : S)
    W.keyValue(Name, median(V));
  W.keyValue("pass.queue_wait_ms_p90", percentile90(QueueWaitMs));
  W.endObject();
  std::printf("%s\n", Out.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: depflow-perfbench gen-module mixed|call FUNCS SEED OUT\n"
               "       depflow-perfbench check pipeline INPUT OUTPUT SEED\n"
               "       depflow-perfbench check slice INPUT OUTPUT CRIT INPUTS\n"
               "       depflow-perfbench layers PASSES|- JOBS SECONDS "
               "MANIFEST\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> A(Argv + 1, Argv + Argc);
  if (A.size() == 5 && A[0] == "gen-module" &&
      (A[1] == "mixed" || A[1] == "call"))
    return cmdGenModule(A[1], unsigned(std::strtoul(A[2].c_str(), nullptr, 10)),
                        std::strtoull(A[3].c_str(), nullptr, 10), A[4]);
  if (A.size() == 5 && A[0] == "check" && A[1] == "pipeline")
    return cmdCheckPipeline(A[2], A[3],
                            std::strtoull(A[4].c_str(), nullptr, 10));
  if (A.size() == 6 && A[0] == "check" && A[1] == "slice")
    return cmdCheckSlice(A[2], A[3], A[4], A[5]);
  if (A.size() == 5 && A[0] == "layers") {
    unsigned Jobs = unsigned(std::strtoul(A[2].c_str(), nullptr, 10));
    double Seconds = std::strtod(A[3].c_str(), nullptr);
    if (Jobs == 0 || Seconds < 0)
      return usage();
    return cmdLayers(A[1], Jobs, Seconds, A[4]);
  }
  return usage();
}
