// Observability overhead microbench: reports what the tracing and heat
// hooks cost when compiled in, and emits the compiled-out shapes whose
// machine code the `obs` gate compares with the hook-free baselines.
//
// Each mode runs the same hot loop — a leaf-style binary search over a
// 4096-key node per iteration — wrapped in a different hook policy:
//
//   baseline      no span object at all (LoopOnce<NoSpan>)
//   disabled      obs::ScopedSpan with no active session (one relaxed
//                 load + branch per iteration)
//   enabled       obs::ScopedSpan recording into an active session (two
//                 clock reads + a thread-local vector push)
//   heat_enabled  one KeyRangeSketch::Record (bin multiply + relaxed add)
//                 plus an OnNodeTouch into a LevelHeatTracer and the
//                 pool's touch counter per iteration — the serving
//                 dispatch path's per-op heat cost (HeatLoop<EnabledHeat>)
//
// The compiled-out shapes are not timed: a timing of identical machine
// code against itself measures only noise. LoopOnce<obs::NullSpan> is the
// exact expansion of the HBTREE_TRACE_* macros when HBTREE_OBS_TRACING=0,
// and HeatLoop<CompiledOutHeat> that of the heat hooks when
// HBTREE_OBS_HEAT=0. `scripts/check.sh obs` asserts, through
// `validate_metrics.py --same-code`, that each is the same machine code as
// its baseline (LoopOnce<NoSpan>, HeatLoop<NoHeat>). The loops are
// noinline and noclone, so that each instantiation keeps one symbol of
// its own, with no inlined or specialized copy, to compare.
//
// Times are min-of-reps ns/op with the modes interleaved round-robin
// (so frequency ramp or a noisy neighbour hits every mode equally).
//
// Flags: --iters (per rep), --reps, --metrics_json=<path> (hbtree.bench.v1
// rows; no metrics snapshot — this bench exercises no devices).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_support/args.h"
#include "bench_support/report.h"
#include "core/trace.h"
#include "obs/heat.h"
#include "obs/trace.h"

namespace hbtree::bench {
namespace {

using Clock = std::chrono::steady_clock;

// xorshift so the searched key can't be hoisted out of the loop.
inline std::uint64_t Mix(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

std::vector<std::uint64_t> MakeNode(std::size_t n) {
  std::vector<std::uint64_t> keys(n);
  std::uint64_t v = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t& k : keys) {
    v = Mix(v);
    k = v;
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

template <typename SpanT>
[[gnu::noinline, gnu::noclone]] std::uint64_t LoopOnce(
    const std::vector<std::uint64_t>& keys, std::size_t iters) {
  std::uint64_t sink = 0;
  std::uint64_t state = 1;
  for (std::size_t i = 0; i < iters; ++i) {
    SpanT span("obs.work", "bench");
    state = Mix(state);
    const auto it = std::lower_bound(keys.begin(), keys.end(), state);
    sink += static_cast<std::uint64_t>(it - keys.begin());
  }
  return sink;
}

struct NoSpan {
  NoSpan(const char* /*name*/, const char* /*cat*/) {}
};

/// Stand-in for a PairedPool in the heat loops: the same NoteTouch shape
/// (one relaxed add) without dragging tree storage into the microbench.
struct PoolStub {
  mutable std::atomic<std::uint64_t> touches{0};
  void NoteTouch(std::uint32_t /*idx*/) const {
    touches.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Heat-hook policies for HeatLoop: `Touch(key)` is the per-op hook site.
struct NoHeat {
  void Touch(std::uint64_t /*key*/) const {}
};

/// The exact expansion of the heat hooks when HBTREE_OBS_HEAT=0: the
/// sketch record site is an HBTREE_HEAT_ONLY(...) the preprocessor
/// deletes, and a NullTracer has no OnNodeTouch, so TraceNodeTouch is
/// if-constexpr'd to nothing.
struct CompiledOutHeat {
  const PoolStub* pool;
  void Touch(std::uint64_t /*key*/) const {
    NullTracer tracer;
    TraceNodeTouch(&tracer, *pool, 0, NodeClass::kBigLeaf, 0u);
  }
};

/// The full per-op heat cost: one sketch record (the serving dispatch
/// hook) plus a traced node touch (tracer cell update + pool touch
/// counter).
struct EnabledHeat {
  const PoolStub* pool;
  obs::KeyRangeSketch* sketch;
  obs::LevelHeatTracer* tracer;
  void Touch(std::uint64_t key) const {
    sketch->Record(key);
    TraceNodeTouch(tracer, *pool, 0, NodeClass::kBigLeaf, 0u);
  }
};

template <typename Heat>
[[gnu::noinline, gnu::noclone]] std::uint64_t HeatLoop(
    const std::vector<std::uint64_t>& keys, std::size_t iters,
    const Heat& heat) {
  std::uint64_t sink = 0;
  std::uint64_t state = 1;
  for (std::size_t i = 0; i < iters; ++i) {
    state = Mix(state);
    heat.Touch(state);
    const auto it = std::lower_bound(keys.begin(), keys.end(), state);
    sink += static_cast<std::uint64_t>(it - keys.begin());
  }
  return sink;
}

/// One timed run of `loop`, returning ns/op.
template <typename LoopFn>
double TimeNs(LoopFn&& loop, std::size_t iters, std::uint64_t* sink) {
  const auto t0 = Clock::now();
  *sink ^= loop(iters);
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

int Main(int argc, char** argv) {
  Args args(argc, argv);
  args.PrintActive();
  const std::size_t iters =
      static_cast<std::size_t>(args.GetInt("iters", 200 * 1024));
  const int reps = static_cast<int>(args.GetInt("reps", 9));

  const auto keys = MakeNode(4096);
  std::uint64_t sink = 0;

  PoolStub pool;
  obs::KeyRangeSketch::Options sketch_options;
  obs::KeyRangeSketch sketch(0, ~0ull, sketch_options);
  // The heat loops never call OnAccess, so one token cache level is
  // enough to construct the tracer.
  sim::CacheHierarchy caches({{"L1", 32 * 1024, 8, 64}});
  obs::LevelHeatTracer heat_tracer(&caches);
  const EnabledHeat heat{&pool, &sketch, &heat_tracer};

  // Warm up caches and the branch predictor before any timed rep. The
  // compiled-out shapes run here only, so that each keeps its symbol.
  sink ^= LoopOnce<NoSpan>(keys, iters);
  sink ^= LoopOnce<obs::NullSpan>(keys, iters);
  sink ^= LoopOnce<obs::ScopedSpan>(keys, iters);
  sink ^= HeatLoop(keys, iters, NoHeat{});
  sink ^= HeatLoop(keys, iters, CompiledOutHeat{&pool});
  sink ^= HeatLoop(keys, iters, heat);

  double baseline_ns = 1e300, disabled_ns = 1e300, enabled_ns = 1e300;
  double heat_enabled_ns = 1e300;
  for (int r = 0; r < reps; ++r) {
    obs::TraceSession::Stop();  // make "disabled" explicit
    baseline_ns = std::min(
        baseline_ns,
        TimeNs([&](std::size_t n) { return LoopOnce<NoSpan>(keys, n); },
               iters, &sink));
    disabled_ns = std::min(
        disabled_ns,
        TimeNs(
            [&](std::size_t n) {
              return LoopOnce<obs::ScopedSpan>(keys, n);
            },
            iters, &sink));
    heat_enabled_ns = std::min(
        heat_enabled_ns,
        TimeNs([&](std::size_t n) { return HeatLoop(keys, n, heat); },
               iters, &sink));
    obs::TraceSession::Start();  // also clears the event buffers
    enabled_ns = std::min(
        enabled_ns,
        TimeNs(
            [&](std::size_t n) {
              return LoopOnce<obs::ScopedSpan>(keys, n);
            },
            iters, &sink));
  }
  obs::TraceSession::Stop();
  obs::TraceSession::Clear();

  const auto pct = [&](double ns) {
    return (ns - baseline_ns) / baseline_ns * 100.0;
  };

  BenchReport report("obs_overhead");
  report.MetaNum("iters", static_cast<double>(iters));
  report.MetaNum("reps", reps);
  report.MetaNum("node_keys", static_cast<double>(keys.size()));
  report.AddRow().Text("mode", "baseline").Num("ns_per_op", baseline_ns, 2);
  report.AddRow()
      .Text("mode", "disabled")
      .Num("ns_per_op", disabled_ns, 2)
      .Num("overhead_pct", pct(disabled_ns), 2);
  report.AddRow()
      .Text("mode", "enabled")
      .Num("ns_per_op", enabled_ns, 2)
      .Num("overhead_pct", pct(enabled_ns), 2);
  report.AddRow()
      .Text("mode", "heat_enabled")
      .Num("ns_per_op", heat_enabled_ns, 2)
      .Num("overhead_pct", pct(heat_enabled_ns), 2);
  report.PrintTable("tracing overhead per instrumented op");

  if (args.Has("metrics_json")) {
    if (!report.WriteJson(args.GetString("metrics_json", ""))) return 1;
  }
  std::printf("(sink %llu)\n", static_cast<unsigned long long>(sink));
  return 0;
}

}  // namespace
}  // namespace hbtree::bench

int main(int argc, char** argv) { return hbtree::bench::Main(argc, argv); }
