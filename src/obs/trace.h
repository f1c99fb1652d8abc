#ifndef HBTREE_OBS_TRACE_H_
#define HBTREE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hbtree::obs {

/// One recorded trace event (Chrome trace-event model). `name` and `cat`
/// must be string literals (or otherwise outlive the session): recording
/// stores the pointer, never copies, so the hot path stays a couple of
/// stores into a thread-owned vector.
struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  char ph = 'X';  // 'X' complete span, 'i' instant event
  int pid = 0;
  int tid = 0;
  double ts_us = 0;
  double dur_us = 0;           // valid for 'X'
  const char* arg_name = nullptr;  // optional single numeric arg
  double arg_value = 0;
  /// Nonzero links this span to histogram exemplars: exported as
  /// `args.span_id`, matched against the `span_id` field of
  /// `hbtree.metrics.v1` exemplars. Allocated via NextSpanId() only for
  /// spans something may point at (bucket dispatches, update commits).
  std::uint64_t span_id = 0;
};

/// Process-wide span recorder.
///
/// Two timelines coexist in one trace, separated by pid:
///  * pid kWallPid — real wall-clock spans recorded by RAII ScopedSpans on
///    the serving/bench threads (one track per thread).
///  * pid kModelPid — the simulated platform's modelled-µs timeline. The
///    bucket pipeline's job-shop scheduler knows when each bucket occupies
///    the H2D engine, the kernel, the D2H engine and the CPU leaf stage;
///    those intervals are emitted onto fixed resource tracks, which is
///    what makes double-buffering overlap *visible* in Perfetto.
///
/// Recording is lock-free: each thread appends to its own buffer
/// (registered once under a mutex). Start/Stop/Write/Clear are control
/// operations and must not race recording threads — call them while the
/// workload is quiescent (benches start before submitting load and export
/// after Shutdown()).
///
/// Instrumentation sites compile away by default: the HBTREE_TRACE_*
/// macros below expand to nothing unless the translation unit defines
/// HBTREE_OBS_TRACING=1 (benches and the trace tests opt in per target),
/// so the library hot paths carry zero tracing cost — not even a branch —
/// in the default build.
class TraceSession {
 public:
  static constexpr int kWallPid = 1;
  static constexpr int kModelPid = 2;

  /// Fixed tids under kModelPid, one per simulated resource.
  enum ModelTrack : int {
    kTrackPreDescend = 1,
    kTrackH2D = 2,
    kTrackKernel = 3,
    kTrackD2H = 4,
    kTrackCpuLeaf = 5,
  };

  /// Each tree slot gets its own block of model tracks so multi-shard
  /// traces are not interleaved on one set of resource tracks: slot
  /// ordinal k records on tids `k * kModelTrackStride + ModelTrack`.
  /// Base 0 (single un-sharded pipelines, direct bench runs) keeps the
  /// bare `sim.*` track names.
  static constexpr int kModelTrackStride = 8;

  static bool active() {
    return active_.load(std::memory_order_relaxed);
  }

  /// Clears previous events and starts recording; the session clock
  /// (NowUs) restarts at zero.
  static void Start();
  static void Stop();
  static void Clear();

  /// Microseconds since Start() on the wall clock.
  static double NowUs();

  /// Identity of the current recording session, regenerated at Start()
  /// and exported as the trace JSON's top-level `traceId`. Kept below
  /// 2^48 so it round-trips through JSON doubles; 0 only before the
  /// first Start(). Exemplars captured while this session records carry
  /// this id, which is how a metrics file is matched to its trace file.
  static std::uint64_t trace_id();

  /// Allocates a span id (monotonic, never reused across sessions) for
  /// spans that exemplars may reference. Cheap (one relaxed fetch_add)
  /// but not free — only identified spans pay it.
  static std::uint64_t NextSpanId();

  /// Names the calling thread's track in the exported trace. Unlike
  /// event names, the string is copied — dynamically built worker labels
  /// ("serve.shard0.read1") are fine.
  static void SetThreadName(const char* name);

  /// Labels a block of model tracks (`base + ModelTrack` for every
  /// track) in the export, e.g. RegisterModelTrackPrefix(8, "shard0/slotB")
  /// names tid 10 "shard0/slotB/sim.h2d". Registrations persist across
  /// Start()/Clear() (re-registering a base overwrites it). Unregistered
  /// nonzero bases fall back to a "slot<k>/" prefix.
  static void RegisterModelTrackPrefix(int base, const std::string& prefix);

  // -- Recording (no-ops unless active) -----------------------------------
  static void RecordComplete(const char* name, const char* cat, double ts_us,
                             double dur_us, const char* arg_name = nullptr,
                             double arg_value = 0, std::uint64_t span_id = 0);
  static void RecordInstant(const char* name, const char* cat);
  /// Emits a span on a simulated-resource track of the block starting at
  /// `base` (a multiple of kModelTrackStride — the slot's block, see
  /// RegisterModelTrackPrefix). `ts_us` is on the caller's chosen model
  /// timeline (the pipeline offsets each run by the wall time at run
  /// start so successive runs do not stack at zero).
  static void RecordModelSpanAt(int base, ModelTrack track, const char* name,
                                double ts_us, double dur_us,
                                const char* arg_name = nullptr,
                                double arg_value = 0);

  // -- Export -------------------------------------------------------------
  /// All recorded events, in per-thread recording order. For tests and
  /// ad-hoc inspection; requires the session to be stopped.
  static std::vector<TraceEvent> Snapshot();
  static std::size_t event_count();

  /// (tid, name) for every wall thread that named itself — lets the
  /// stage aggregator attribute wall spans to shards without parsing the
  /// exported JSON. Requires the session to be stopped.
  static std::vector<std::pair<int, std::string>> ThreadNames();
  /// (base, prefix) for every registered model track block.
  static std::vector<std::pair<int, std::string>> ModelTrackPrefixes();

  /// Writes chrome://tracing / Perfetto-loadable JSON. Returns false if
  /// the session is still active or the file cannot be written.
  static bool WriteChromeJson(const std::string& path);
  /// The same JSON as a string (tests validate it without file I/O).
  static std::string ToChromeJson();

 private:
  static std::atomic<bool> active_;
};

/// RAII wall-clock span: captures the start timestamp if the session is
/// active at construction, records a complete event at destruction.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat)
      : name_(name), cat_(cat), armed_(TraceSession::active()) {
    if (armed_) start_us_ = TraceSession::NowUs();
  }
  ScopedSpan(const char* name, const char* cat, const char* arg_name,
             double arg_value)
      : name_(name),
        cat_(cat),
        arg_name_(arg_name),
        arg_value_(arg_value),
        armed_(TraceSession::active()) {
    if (armed_) start_us_ = TraceSession::NowUs();
  }
  ~ScopedSpan() {
    if (armed_) {
      TraceSession::RecordComplete(name_, cat_, start_us_,
                                   TraceSession::NowUs() - start_us_,
                                   arg_name_, arg_value_, span_id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches one numeric argument shown in the trace viewer.
  void set_arg(const char* name, double value) {
    arg_name_ = name;
    arg_value_ = value;
  }

  /// Gives this span an identity that exemplars can reference; returns
  /// it (0 when the span is unarmed, i.e. the session was inactive at
  /// construction — callers can store the result unconditionally).
  std::uint64_t EnsureSpanId() {
    if (armed_ && span_id_ == 0) span_id_ = TraceSession::NextSpanId();
    return span_id_;
  }

 private:
  const char* name_;
  const char* cat_;
  const char* arg_name_ = nullptr;
  double arg_value_ = 0;
  bool armed_;
  double start_us_ = 0;
  std::uint64_t span_id_ = 0;
};

/// Null span with the ScopedSpan interface — the compiled-out policy for
/// template-parameterized hot loops (bench/obs_overhead compares the two
/// the same way core/trace.h's NullTracer compiles away memory tracing).
struct NullSpan {
  NullSpan(const char* /*name*/, const char* /*cat*/) {}
  void set_arg(const char* /*name*/, double /*value*/) {}
  std::uint64_t EnsureSpanId() { return 0; }
};

}  // namespace hbtree::obs

// -- Instrumentation macros -------------------------------------------------
//
// Compiled out by default: a translation unit opts in with
// -DHBTREE_OBS_TRACING=1 (set per bench/test target in CMake). Every
// instantiation of the instrumented templates inside one binary must agree
// on the setting (single-TU benches and tests trivially do).
#ifndef HBTREE_OBS_TRACING
#define HBTREE_OBS_TRACING 0
#endif

#if HBTREE_OBS_TRACING

#define HBTREE_OBS_CONCAT_IMPL(a, b) a##b
#define HBTREE_OBS_CONCAT(a, b) HBTREE_OBS_CONCAT_IMPL(a, b)

/// Wall-clock span covering the rest of the enclosing scope.
#define HBTREE_TRACE_SPAN(name, cat) \
  ::hbtree::obs::ScopedSpan HBTREE_OBS_CONCAT(hbtree_obs_span_, \
                                              __LINE__)(name, cat)
/// Same, with one numeric argument shown in the trace viewer. The
/// argument expression is NOT evaluated when tracing is compiled out —
/// keep it side-effect free.
#define HBTREE_TRACE_SPAN_ARG(name, cat, arg_name, arg_value)       \
  ::hbtree::obs::ScopedSpan HBTREE_OBS_CONCAT(hbtree_obs_span_,     \
                                              __LINE__)(            \
      name, cat, arg_name, static_cast<double>(arg_value))
#define HBTREE_TRACE_INSTANT(name, cat)                           \
  do {                                                            \
    if (::hbtree::obs::TraceSession::active())                    \
      ::hbtree::obs::TraceSession::RecordInstant(name, cat);      \
  } while (0)
/// Explicit complete span whose start predates the recording site (e.g.
/// an op's admission-queue wait, measured at dispatch). `ts_us`/`dur_us`
/// are on the session clock (TraceSession::NowUs). Arguments are NOT
/// evaluated when tracing is compiled out — keep them side-effect free.
#define HBTREE_TRACE_COMPLETE(name, cat, ts_us, dur_us, arg_name, arg)    \
  do {                                                                    \
    if (::hbtree::obs::TraceSession::active())                            \
      ::hbtree::obs::TraceSession::RecordComplete(                        \
          name, cat, static_cast<double>(ts_us),                          \
          static_cast<double>(dur_us), arg_name,                          \
          static_cast<double>(arg));                                      \
  } while (0)
/// Model-resource span on the track block starting at `base` (a slot's
/// kModelTrackStride multiple; 0 for the bare sim.* tracks). Arguments
/// are NOT evaluated when tracing is compiled out.
#define HBTREE_TRACE_MODEL_SPAN(base, track, name, ts_us, dur_us, arg_name, \
                                arg)                                        \
  do {                                                                      \
    if (::hbtree::obs::TraceSession::active())                              \
      ::hbtree::obs::TraceSession::RecordModelSpanAt(                       \
          base, ::hbtree::obs::TraceSession::track, name, ts_us, dur_us,    \
          arg_name, arg);                                                   \
  } while (0)
#define HBTREE_TRACE_THREAD_NAME(name)                        \
  do {                                                        \
    ::hbtree::obs::TraceSession::SetThreadName(name);         \
  } while (0)
/// Statements that exist only to feed tracing (e.g. computing a stage
/// timeline for model spans).
#define HBTREE_TRACE_ONLY(...) __VA_ARGS__

#else  // !HBTREE_OBS_TRACING

#define HBTREE_TRACE_SPAN(name, cat) \
  do {                               \
  } while (0)
#define HBTREE_TRACE_SPAN_ARG(name, cat, arg_name, arg_value) \
  do {                                                        \
  } while (0)
#define HBTREE_TRACE_INSTANT(name, cat) \
  do {                                  \
  } while (0)
#define HBTREE_TRACE_COMPLETE(name, cat, ts_us, dur_us, arg_name, arg) \
  do {                                                                 \
  } while (0)
#define HBTREE_TRACE_MODEL_SPAN(base, track, name, ts_us, dur_us, arg_name, \
                                arg)                                        \
  do {                                                                      \
  } while (0)
#define HBTREE_TRACE_THREAD_NAME(name) \
  do {                                 \
  } while (0)
#define HBTREE_TRACE_ONLY(...)

#endif  // HBTREE_OBS_TRACING

#endif  // HBTREE_OBS_TRACE_H_
