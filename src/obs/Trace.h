//===- obs/Trace.h - Low-overhead trace-event recorder ----------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe span recorder that serializes to the Chrome trace-event
/// format, so `depflow-opt --trace-json out.json` produces a file that
/// `chrome://tracing` and Perfetto load directly. The paper's headline
/// claims are complexity bounds; this recorder is how the repo watches
/// them: every pass execution, every analysis computation, and every
/// parallel function task becomes a span on its worker's track.
///
/// Design constraints, in order:
///
///   * **Near-zero cost when off.** Recording is globally disabled until a
///     driver opts in; a disabled `TraceSpan` is one relaxed atomic load
///     and a branch — no clock read, no allocation.
///   * **No cross-thread contention when on.** Each thread appends to its
///     own buffer (registered once, on the thread's first event). The only
///     shared state is the registry of buffers, touched at registration
///     and at flush. Buffers outlive their threads (the module driver's
///     workers join before the flush), so events survive to serialization.
///   * **Monotonic time.** Timestamps come from `steady_clock`, expressed
///     as microseconds since the recorder's construction — the same clock
///     `--time-passes` uses, which is what lets the tests demand the two
///     reports agree.
///
/// The unit of recording is the RAII `TraceSpan`: construction stamps the
/// start, destruction stamps the duration and commits the event. Spans on
/// one thread nest by construction order, which the trace viewers render
/// as stacked slices. `traceInstant` records zero-duration markers (the
/// analysis manager uses it for cache hits).
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_OBS_TRACE_H
#define DEPFLOW_OBS_TRACE_H

#include "support/Error.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace depflow {
namespace obs {

/// One committed event. Durations are in microseconds; `DurUs < 0` marks
/// an instant event.
struct TraceEvent {
  std::string Name;
  const char *Category = "";
  double TsUs = 0;   // Start, microseconds since the recorder's epoch.
  double DurUs = -1; // Span duration; negative = instant event.
  std::uint32_t Tid = 0;
  /// Optional key/value annotations, serialized into the event's "args".
  std::vector<std::pair<std::string, std::string>> Args;
};

class TraceRecorder {
  struct ThreadBuffer {
    std::mutex Lock; // Uncontended in steady state: one writer (the owning
                     // thread); the flush path locks after workers join.
    std::uint32_t Tid = 0;
    std::string Name; // Track name ("worker-3"); empty = unnamed.
    std::vector<TraceEvent> Events;
  };

  std::atomic<bool> Enabled{false};
  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex RegistryLock;
  std::vector<std::shared_ptr<ThreadBuffer>> Buffers;
  std::uint32_t NextTid = 1;

  TraceRecorder() : Epoch(std::chrono::steady_clock::now()) {}

  ThreadBuffer &localBuffer();

public:
  TraceRecorder(const TraceRecorder &) = delete;
  TraceRecorder &operator=(const TraceRecorder &) = delete;

  /// The process-wide recorder every TraceSpan reports to.
  static TraceRecorder &global();

  void setEnabled(bool On) {
    Enabled.store(On, std::memory_order_relaxed);
  }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Microseconds since the recorder's epoch (monotonic).
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  /// Names the calling thread's track in the serialized trace. The level
  /// executor (obs/Sched.h) names its workers "worker-<k>".
  void setCurrentThreadName(std::string Name);

  /// Commits one event to the calling thread's buffer.
  void record(TraceEvent E);

  /// Every committed event, merged across threads, sorted by start time
  /// (ties: longer span first, so parents precede their children).
  std::vector<TraceEvent> snapshot() const;

  /// The merged events as a Chrome trace-event JSON document (an object
  /// with a "traceEvents" array; thread-name metadata events first).
  std::string toChromeJson() const;

  /// Serializes toChromeJson() to \p Path.
  Status writeChromeJson(const std::string &Path) const;

  /// Drops every committed event. Thread registrations (and track names)
  /// survive; tests use this to isolate scenarios.
  void reset();
};

/// RAII span: stamps the start on construction, commits on destruction.
/// When the global recorder is disabled at construction, the span is inert
/// (and stays inert even if recording is enabled mid-span).
class TraceSpan {
  bool Armed;
  double StartUs = 0;
  const char *Category = "";
  std::string Name;
  std::vector<std::pair<std::string, std::string>> Args;

public:
  TraceSpan(const char *Category, std::string Name)
      : Armed(TraceRecorder::global().enabled()), Category(Category) {
    if (Armed) {
      this->Name = std::move(Name);
      StartUs = TraceRecorder::global().nowUs();
    }
  }
  TraceSpan(const char *Category, const char *Name)
      : Armed(TraceRecorder::global().enabled()), Category(Category) {
    if (Armed) {
      this->Name = Name;
      StartUs = TraceRecorder::global().nowUs();
    }
  }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  /// Whether this span will be recorded.
  bool armed() const { return Armed; }

  /// Attaches a key/value annotation (no-op when inert).
  void arg(std::string Key, std::string Value) {
    if (Armed)
      Args.emplace_back(std::move(Key), std::move(Value));
  }

  ~TraceSpan() {
    if (!Armed)
      return;
    TraceRecorder &R = TraceRecorder::global();
    TraceEvent E;
    E.Name = std::move(Name);
    E.Category = Category;
    E.TsUs = StartUs;
    E.DurUs = R.nowUs() - StartUs;
    E.Args = std::move(Args);
    R.record(std::move(E));
  }
};

/// Records an instant event (a zero-duration marker on this thread's
/// track). No-op while the recorder is disabled.
void traceInstant(const char *Category, const char *Name);

} // namespace obs
} // namespace depflow

#endif // DEPFLOW_OBS_TRACE_H
