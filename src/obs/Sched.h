//===- obs/Sched.h - Level executor and scheduler telemetry -----*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The task executor behind the repo's two parallel drivers, and its
/// scheduler observability. Both drivers run a *level-structured*
/// schedule: the ModulePipeline runs one level of function tasks; the SDG
/// build runs one level of per-function PDG tasks, then one level per
/// call-graph condensation level of SCC tasks. Tasks within a level are
/// mutually independent (function tasks trivially; SDG SCC tasks by the
/// condensation order) and a barrier separates consecutive levels.
/// `LevelExecutor` runs such a schedule and owns every scheduling concern
/// the drivers share: the worker count, the atomic-claim thread pool, the
/// `task` trace spans, the `sched` journal events, the per-task stamps,
/// the recorded `SchedRun`, and the `sched` counter group.
///
/// The level structure is what makes the analysis here exact rather than
/// heuristic:
///
///   * **Critical path** = Σ over levels of the most expensive task in the
///     level. Because every level ends with a barrier, the wall-clock of a
///     run can never beat this sum, so `wall >= critical path` is an
///     invariant the tests assert, not a modeling assumption.
///   * **Achievable speedup** = total work / critical path — the
///     dependence-theoretic bound implied by the paper's representations.
///     Measured speedup = total work / wall; the bound dominates it by the
///     same barrier argument.
///   * **Per-worker utilization** = busy / wall, where busy sums the
///     worker's task spans. One worker's spans are disjoint, so
///     utilization <= 1 per worker.
///
/// Two independent consumers:
///
///   * `SchedRecorder` (+`analyzeSchedRun`/`renderSchedReport`): wall-time
///     records behind `--sched-report` and the depflow-stats `sched`
///     section. Timestamps share the trace recorder's epoch.
///   * The **deterministic `sched` counter group**: derived
///     from schedule *structure* only (task counts, level widths, level
///     depths — never clocks or worker ids), so the counters are
///     byte-identical at any `-j N` and safe for the perf gate and the
///     fuzzer's determinism contract.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_OBS_SCHED_H
#define DEPFLOW_OBS_SCHED_H

#include "obs/Trace.h"

#include <atomic>
#include <climits>
#include <cstdint>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

namespace depflow {
namespace obs {

/// One scheduled task's record. Timestamps are microseconds on the trace
/// recorder's epoch; `Worker` is the pool slot that executed the task
/// (0 for a serial run).
struct SchedTask {
  std::string Name;
  unsigned Level = 0;
  unsigned Worker = 0;
  double EnqueueUs = 0; // When the task became ready (its level opened).
  double StartUs = 0;   // When a worker began executing it.
  double EndUs = 0;     // When its results were committed.
  bool Failed = false;
};

/// One parallel run: a level-structured task DAG executed on `Jobs`
/// workers between `BeginUs` and `EndUs`.
struct SchedRun {
  std::string Name; // "module-pipeline" or "sdg-build".
  unsigned Jobs = 1;
  unsigned NumLevels = 1;
  unsigned MaxReady = 0; // Widest level = max simultaneously-ready tasks.
  double BeginUs = 0;
  double EndUs = 0;
  std::vector<SchedTask> Tasks;
};

struct SchedWorkerStat {
  double BusyUs = 0;
  unsigned Tasks = 0;
};

/// The derived quantities `--sched-report` prints; see the file comment
/// for the definitions and the invariants relating them.
struct SchedRunReport {
  double WallUs = 0;
  double WorkUs = 0;
  double CriticalPathUs = 0;
  double AchievableSpeedup = 1; // WorkUs / CriticalPathUs.
  double MeasuredSpeedup = 1;   // WorkUs / WallUs.
  unsigned FailedTasks = 0;
  std::vector<SchedWorkerStat> Workers; // Indexed by worker id, size Jobs.
};

/// Computes the report quantities for one recorded run.
SchedRunReport analyzeSchedRun(const SchedRun &R);

/// Wall-time run records behind `--sched-report`. Disabled by default;
/// tools opt in, and every `LevelExecutor` run then records one `SchedRun`.
class SchedRecorder {
public:
  SchedRecorder(const SchedRecorder &) = delete;
  SchedRecorder &operator=(const SchedRecorder &) = delete;

  static SchedRecorder &global();

  void setEnabled(bool On);
  bool enabled() const;

  /// Appends one completed run (thread-safe; the executor calls it after
  /// its workers join).
  void record(SchedRun R);

  std::vector<SchedRun> snapshot() const;

  /// Drops every recorded run.
  void reset();

private:
  SchedRecorder() = default;
  struct Impl;
  Impl &impl() const;
};

/// Renders the human-readable `--sched-report` text for \p Runs.
std::string renderSchedReport(const std::vector<SchedRun> &Runs);

/// The worker count a run asking for \p Jobs uses: 0 means
/// hardware_concurrency; the result is at least 1 and at most
/// \p MaxWidth, the widest level of the run.
unsigned resolveJobs(unsigned Jobs, unsigned MaxWidth = UINT_MAX);

/// Where and when one task ran, on the trace recorder's clock.
struct TaskStamp {
  unsigned Worker = 0;  // Pool slot that ran the task (0 for inline runs).
  double EnqueueUs = 0; // When the task became ready (its level opened).
  double StartUs = 0;   // When a worker began executing it.
  double EndUs = 0;     // When its results were committed.
};

/// Runs one level-structured schedule: a sequence of `runLevel` calls,
/// each a barrier level of mutually independent tasks, between
/// construction (the `run-start` event) and `finish()` (`run-end`, the
/// recorded `SchedRun`). Serial work between levels counts toward the
/// run's wall time.
class LevelExecutor {
public:
  /// Opens run \p Name of \p Tasks tasks whose widest level has
  /// \p MaxWidth tasks, on `resolveJobs(Jobs, MaxWidth)` workers.
  LevelExecutor(const char *Name, unsigned Jobs, unsigned Tasks,
                unsigned MaxWidth);
  LevelExecutor(const LevelExecutor &) = delete;
  LevelExecutor &operator=(const LevelExecutor &) = delete;

  /// Runs tasks 0..Width-1 as the next level and returns once all have
  /// finished. `Body(I, Worker)` runs task I on pool slot Worker and
  /// returns whether it succeeded; a failed task logs its own cause.
  /// `TaskName(I)` names task I for the trace span, the journal and the
  /// `SchedRun`, and is called only while one of them is recording.
  /// With one worker the tasks run inline on the calling thread;
  /// otherwise `min(workers, Width)` threads claim them through one
  /// atomic counter. When \p Stamps is non-null, task I's stamps land in
  /// `Stamps[I]`.
  template <typename NameT, typename BodyT>
  void runLevel(unsigned Width, const NameT &TaskName, const BodyT &Body,
                TaskStamp *Stamps = nullptr);

  /// Closes the run.
  void finish();

private:
  const char *Name;
  unsigned Jobs;
  unsigned Tasks;
  bool SchedOn;
  unsigned NumLevels = 0;
  std::atomic<unsigned> NumFailed{0};
  double BeginUs;
  SchedRun Run; // Filled only while the SchedRecorder is enabled.

  // The non-template halves of runLevel.
  bool namesTasks() const;
  double beginLevel(unsigned Width);
  void taskStarted(TraceSpan &Span, const std::string &Task, unsigned Level,
                   const TaskStamp &S) const;
  void taskEnded(std::string Task, unsigned Level, std::size_t Slot,
                 const TaskStamp &S, bool Ok);
};

template <typename NameT, typename BodyT>
void LevelExecutor::runLevel(unsigned Width, const NameT &TaskName,
                             const BodyT &Body, TaskStamp *Stamps) {
  const unsigned Level = NumLevels;
  const std::size_t Base = Run.Tasks.size();
  const double EnqueueUs = beginLevel(Width);
  auto RunTask = [&](unsigned I, unsigned Worker) {
    TaskStamp S{Worker, EnqueueUs, TraceRecorder::global().nowUs()};
    std::string Task = namesTasks() ? TaskName(I) : std::string();
    bool Ok;
    {
      // The spans a body opens nest inside this one.
      TraceSpan Span("task", Task);
      taskStarted(Span, Task, Level, S);
      Ok = Body(I, Worker);
    }
    S.EndUs = TraceRecorder::global().nowUs();
    if (Stamps)
      Stamps[I] = S;
    taskEnded(std::move(Task), Level, Base + I, S, Ok);
  };

  const unsigned Threads = Jobs < Width ? Jobs : Width;
  if (Threads <= 1) {
    for (unsigned I = 0; I != Width; ++I)
      RunTask(I, 0);
    return;
  }
  std::atomic<unsigned> Next{0};
  auto Work = [&](unsigned Worker) {
    // One named trace track per worker.
    if (TraceRecorder::global().enabled())
      TraceRecorder::global().setCurrentThreadName("worker-" +
                                                   std::to_string(Worker));
    for (unsigned I;
         (I = Next.fetch_add(1, std::memory_order_relaxed)) < Width;)
      RunTask(I, Worker);
  };
  std::vector<std::thread> Pool;
  Pool.reserve(Threads);
  try {
    for (unsigned T = 0; T != Threads; ++T)
      Pool.emplace_back(Work, T);
  } catch (const std::system_error &) {
    // Out of threads: the workers already running claim every task.
    if (Pool.empty())
      throw;
  }
  for (std::thread &T : Pool)
    T.join();
}

} // namespace obs
} // namespace depflow

#endif // DEPFLOW_OBS_SCHED_H
