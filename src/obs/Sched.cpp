//===- obs/Sched.cpp - Level executor and scheduler telemetry -------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "obs/Sched.h"

#include "obs/EventLog.h"
#include "support/Statistic.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

using namespace depflow;
using namespace depflow::obs;

// The deterministic scheduler counters: the executor bumps them from
// schedule structure only (counts, widths, level indices), never clocks or
// worker attribution, so every one is byte-identical for any -j N.
DEPFLOW_STATISTIC(NumSchedRuns, "sched",
                  "Parallel runs observed by the scheduler telemetry");
DEPFLOW_STATISTIC(NumSchedTasks, "sched",
                  "Tasks scheduled across all parallel runs");
DEPFLOW_STATISTIC(NumSchedLevels, "sched",
                  "Dependence levels executed across all parallel runs");
DEPFLOW_STATISTIC(NumSchedTasksFailed, "sched",
                  "Scheduled tasks that failed (fault, budget, deadline)");
DEPFLOW_MAX_STATISTIC(MaxSchedReadyWidth, "sched",
                      "Widest ready set: most tasks simultaneously runnable "
                      "by construction");
DEPFLOW_HIST_STATISTIC(HistSchedTaskDepth, "sched",
                       "Per-task dependency depth (its level index)");

//===----------------------------------------------------------------------===//
// LevelExecutor
//===----------------------------------------------------------------------===//

unsigned depflow::obs::resolveJobs(unsigned Jobs, unsigned MaxWidth) {
  if (!Jobs)
    Jobs = std::thread::hardware_concurrency();
  return std::max(1u, std::min(Jobs, MaxWidth));
}

LevelExecutor::LevelExecutor(const char *Name, unsigned Jobs, unsigned Tasks,
                             unsigned MaxWidth)
    : Name(Name), Jobs(resolveJobs(Jobs, MaxWidth)), Tasks(Tasks),
      SchedOn(SchedRecorder::global().enabled()),
      BeginUs(TraceRecorder::global().nowUs()) {
  ++NumSchedRuns;
  LogEvent(LogLevel::Info, "sched", "run-start")
      .field("run", Name)
      .field("jobs", this->Jobs)
      .field("tasks", Tasks);
}

bool LevelExecutor::namesTasks() const {
  return SchedOn || TraceRecorder::global().enabled() ||
         EventLogger::global().enabled();
}

double LevelExecutor::beginLevel(unsigned Width) {
  // Every task of a level is ready when it opens.
  Run.MaxReady = std::max(Run.MaxReady, Width);
  ++NumSchedLevels;
  MaxSchedReadyWidth.update(Width);
  for (unsigned I = 0; I != Width; ++I) {
    ++NumSchedTasks;
    HistSchedTaskDepth.sample(NumLevels);
  }
  ++NumLevels;
  if (SchedOn)
    Run.Tasks.resize(Run.Tasks.size() + Width);
  return TraceRecorder::global().nowUs();
}

void LevelExecutor::taskStarted(TraceSpan &Span, const std::string &Task,
                                unsigned Level, const TaskStamp &S) const {
  LogEvent(LogLevel::Info, "sched", "task-start")
      .field("run", Name)
      .field("task", Task)
      .field("worker", S.Worker)
      .field("task_level", Level)
      .field("enqueue_us", S.EnqueueUs);
  // The span-args contract tools/trace_analyze.py rebuilds the schedule
  // from.
  if (!Span.armed())
    return;
  Span.arg("level", std::to_string(Level));
  Span.arg("worker", std::to_string(S.Worker));
  Span.arg("enqueue_us", std::to_string(S.EnqueueUs));
}

void LevelExecutor::taskEnded(std::string Task, unsigned Level,
                              std::size_t Slot, const TaskStamp &S, bool Ok) {
  if (Ok) {
    LogEvent(LogLevel::Debug, "sched", "task-commit")
        .field("run", Name)
        .field("task", Task)
        .field("worker", S.Worker)
        .field("task_level", Level)
        .field("enqueue_us", S.EnqueueUs)
        .field("seconds", (S.EndUs - S.StartUs) / 1e6);
  } else {
    // The failed task's body has logged its own task-failed line.
    NumFailed.fetch_add(1, std::memory_order_relaxed);
    ++NumSchedTasksFailed;
  }
  // Each task owns its slot, so concurrent writes never race.
  if (SchedOn)
    Run.Tasks[Slot] = {std::move(Task), Level,   S.Worker, S.EnqueueUs,
                       S.StartUs,       S.EndUs, !Ok};
}

void LevelExecutor::finish() {
  const double EndUs = TraceRecorder::global().nowUs();
  LogEvent(LogLevel::Info, "sched", "run-end")
      .field("run", Name)
      .field("jobs", Jobs)
      .field("tasks", Tasks)
      .field("levels", NumLevels)
      .field("failed", NumFailed.load(std::memory_order_relaxed))
      .field("wall_us", EndUs - BeginUs);
  if (!SchedOn)
    return;
  Run.Name = Name;
  Run.Jobs = Jobs;
  Run.NumLevels = NumLevels;
  Run.BeginUs = BeginUs;
  Run.EndUs = EndUs;
  SchedRecorder::global().record(std::move(Run));
}

//===----------------------------------------------------------------------===//
// SchedRecorder
//===----------------------------------------------------------------------===//

struct SchedRecorder::Impl {
  std::atomic<bool> Enabled{false};
  mutable std::mutex Lock;
  std::vector<SchedRun> Runs;
};

SchedRecorder::Impl &SchedRecorder::impl() const {
  static Impl I; // Meyers singleton: safe across static-init order.
  return I;
}

SchedRecorder &SchedRecorder::global() {
  static SchedRecorder R;
  return R;
}

void SchedRecorder::setEnabled(bool On) {
  impl().Enabled.store(On, std::memory_order_relaxed);
}

bool SchedRecorder::enabled() const {
  return impl().Enabled.load(std::memory_order_relaxed);
}

void SchedRecorder::record(SchedRun R) {
  Impl &I = impl();
  std::lock_guard<std::mutex> G(I.Lock);
  I.Runs.push_back(std::move(R));
}

std::vector<SchedRun> SchedRecorder::snapshot() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> G(I.Lock);
  return I.Runs;
}

void SchedRecorder::reset() {
  Impl &I = impl();
  std::lock_guard<std::mutex> G(I.Lock);
  I.Runs.clear();
}

//===----------------------------------------------------------------------===//
// Analysis
//===----------------------------------------------------------------------===//

SchedRunReport depflow::obs::analyzeSchedRun(const SchedRun &R) {
  SchedRunReport Rep;
  Rep.WallUs = R.EndUs > R.BeginUs ? R.EndUs - R.BeginUs : 0;
  Rep.Workers.assign(std::max(1u, R.Jobs), SchedWorkerStat{});

  // Critical path: every level ends with a barrier, so a run can never
  // finish before the sum over levels of each level's slowest task.
  std::vector<double> LevelMax(std::max(1u, R.NumLevels), 0.0);
  for (const SchedTask &T : R.Tasks) {
    double Dur = T.EndUs > T.StartUs ? T.EndUs - T.StartUs : 0;
    Rep.WorkUs += Dur;
    unsigned L = T.Level < LevelMax.size() ? T.Level : unsigned(
                     LevelMax.size() - 1);
    LevelMax[L] = std::max(LevelMax[L], Dur);
    unsigned W = T.Worker < Rep.Workers.size() ? T.Worker : unsigned(
                     Rep.Workers.size() - 1);
    Rep.Workers[W].BusyUs += Dur;
    ++Rep.Workers[W].Tasks;
    if (T.Failed)
      ++Rep.FailedTasks;
  }
  for (double M : LevelMax)
    Rep.CriticalPathUs += M;

  Rep.AchievableSpeedup =
      Rep.CriticalPathUs > 0 ? Rep.WorkUs / Rep.CriticalPathUs : 1;
  Rep.MeasuredSpeedup = Rep.WallUs > 0 ? Rep.WorkUs / Rep.WallUs : 1;
  return Rep;
}

std::string depflow::obs::renderSchedReport(const std::vector<SchedRun> &Runs) {
  std::string Out;
  char Buf[256];
  auto Append = [&Out](const char *S) { Out += S; };
  Append("=== scheduler report ===\n");
  if (Runs.empty()) {
    Append("(no parallel runs recorded)\n");
    return Out;
  }
  for (const SchedRun &R : Runs) {
    SchedRunReport Rep = analyzeSchedRun(R);
    std::snprintf(Buf, sizeof(Buf),
                  "run %s: jobs=%u tasks=%zu levels=%u max-ready=%u%s\n",
                  R.Name.c_str(), R.Jobs, R.Tasks.size(), R.NumLevels,
                  R.MaxReady,
                  Rep.FailedTasks
                      ? (" failed=" + std::to_string(Rep.FailedTasks)).c_str()
                      : "");
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf),
                  "  wall %.3f ms  work %.3f ms  critical-path %.3f ms\n",
                  Rep.WallUs / 1000.0, Rep.WorkUs / 1000.0,
                  Rep.CriticalPathUs / 1000.0);
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf),
                  "  speedup: measured %.2fx  achievable (work / "
                  "critical-path) %.2fx\n",
                  Rep.MeasuredSpeedup, Rep.AchievableSpeedup);
    Out += Buf;
    for (std::size_t W = 0; W != Rep.Workers.size(); ++W) {
      double Util =
          Rep.WallUs > 0 ? Rep.Workers[W].BusyUs / Rep.WallUs : 0;
      std::snprintf(Buf, sizeof(Buf),
                    "  worker %zu: busy %.3f ms (%.1f%% utilization), "
                    "%u task(s)\n",
                    W, Rep.Workers[W].BusyUs / 1000.0, Util * 100.0,
                    Rep.Workers[W].Tasks);
      Out += Buf;
    }
  }
  return Out;
}
