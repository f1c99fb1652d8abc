#include "obs/trace.h"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "obs/json_writer.h"

namespace hbtree::obs {

std::atomic<bool> TraceSession::active_{false};

namespace {

/// One thread's event log. Owned jointly by the thread (thread_local
/// shared_ptr, so recording needs no lock) and the global registry (so
/// export still sees the events of threads that already exited).
struct ThreadBuffer {
  int tid = 0;
  // Owned copy (unlike event names): worker threads name themselves with
  // dynamically built labels like "serve.shard0.read1".
  std::string name;
  std::vector<TraceEvent> events;
};

/// 48-bit session identity (survives a JSON-double round trip). Mixes
/// two clocks so back-to-back sessions in one process and sessions in
/// distinct processes both diverge.
std::uint64_t GenerateTraceId() {
  const auto mono = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  const auto wall = static_cast<std::uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count());
  std::uint64_t id = (mono * 0x9e3779b97f4a7c15ull) ^ wall;
  id &= (std::uint64_t{1} << 48) - 1;
  return id != 0 ? id : 1;
}

struct TraceState {
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  std::mutex mutex;  // guards buffers + model_prefixes (control ops)
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::map<int, std::string> model_prefixes;  // track base → label
  // Wall tids start above the slot-0 model-track block so a Perfetto
  // view sorts those resource tracks first. Sharded slots use bases ≥
  // kModelTrackStride and so share the tid space with wall threads —
  // harmless, the pids differ.
  std::atomic<int> next_tid{16};
  std::atomic<std::uint64_t> next_span_id{1};
  std::atomic<std::uint64_t> trace_id{0};
};

TraceState& State() {
  static TraceState* state = new TraceState();
  return *state;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    TraceState& state = State();
    b->tid = state.next_tid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(state.mutex);
    state.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

const char* ModelTrackName(int tid) {
  switch (tid) {
    case TraceSession::kTrackPreDescend:
      return "sim.pre_descend";
    case TraceSession::kTrackH2D:
      return "sim.h2d";
    case TraceSession::kTrackKernel:
      return "sim.kernel";
    case TraceSession::kTrackD2H:
      return "sim.d2h";
    case TraceSession::kTrackCpuLeaf:
      return "sim.cpu_leaf";
    default:
      return "sim.unknown";
  }
}

void AppendEvent(JsonWriter* w, const TraceEvent& e) {
  w->BeginObject();
  w->Key("name");
  w->String(e.name);
  w->Key("cat");
  w->String(e.cat);
  w->Key("ph");
  w->String(std::string(1, e.ph));
  w->Key("pid");
  w->Int(e.pid);
  w->Key("tid");
  w->Int(e.tid);
  w->Key("ts");
  w->Number(e.ts_us);
  if (e.ph == 'X') {
    w->Key("dur");
    w->Number(e.dur_us);
  }
  if (e.ph == 'i') {
    w->Key("s");
    w->String("t");  // thread-scoped instant
  }
  if (e.arg_name != nullptr || e.span_id != 0) {
    w->Key("args");
    w->BeginObject();
    if (e.arg_name != nullptr) {
      w->Key(e.arg_name);
      w->Number(e.arg_value);
    }
    if (e.span_id != 0) {
      w->Key("span_id");
      w->Uint(e.span_id);
    }
    w->EndObject();
  }
  w->EndObject();
}

void AppendMetadata(JsonWriter* w, const char* kind, int pid, int tid,
                    const std::string& name) {
  w->BeginObject();
  w->Key("name");
  w->String(kind);
  w->Key("ph");
  w->String("M");
  w->Key("pid");
  w->Int(pid);
  if (tid >= 0) {
    w->Key("tid");
    w->Int(tid);
  }
  w->Key("args");
  w->BeginObject();
  w->Key("name");
  w->String(name);
  w->EndObject();
  w->EndObject();
}

}  // namespace

void TraceSession::Start() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  for (auto& buffer : state.buffers) buffer->events.clear();
  state.start = std::chrono::steady_clock::now();
  state.trace_id.store(GenerateTraceId(), std::memory_order_relaxed);
  active_.store(true, std::memory_order_release);
}

void TraceSession::Stop() { active_.store(false, std::memory_order_release); }

void TraceSession::Clear() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  for (auto& buffer : state.buffers) buffer->events.clear();
}

double TraceSession::NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - State().start)
      .count();
}

void TraceSession::SetThreadName(const char* name) {
  LocalBuffer().name = name;
}

std::uint64_t TraceSession::trace_id() {
  return State().trace_id.load(std::memory_order_relaxed);
}

std::uint64_t TraceSession::NextSpanId() {
  return State().next_span_id.fetch_add(1, std::memory_order_relaxed);
}

void TraceSession::RegisterModelTrackPrefix(int base,
                                            const std::string& prefix) {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.model_prefixes[base] = prefix;
}

void TraceSession::RecordComplete(const char* name, const char* cat,
                                  double ts_us, double dur_us,
                                  const char* arg_name, double arg_value,
                                  std::uint64_t span_id) {
  if (!active()) return;
  ThreadBuffer& buffer = LocalBuffer();
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'X';
  e.pid = kWallPid;
  e.tid = buffer.tid;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.arg_name = arg_name;
  e.arg_value = arg_value;
  e.span_id = span_id;
  buffer.events.push_back(e);
}

void TraceSession::RecordInstant(const char* name, const char* cat) {
  if (!active()) return;
  ThreadBuffer& buffer = LocalBuffer();
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'i';
  e.pid = kWallPid;
  e.tid = buffer.tid;
  e.ts_us = NowUs();
  buffer.events.push_back(e);
}

void TraceSession::RecordModelSpanAt(int base, ModelTrack track,
                                     const char* name, double ts_us,
                                     double dur_us, const char* arg_name,
                                     double arg_value) {
  if (!active()) return;
  ThreadBuffer& buffer = LocalBuffer();
  TraceEvent e;
  e.name = name;
  e.cat = "model";
  e.ph = 'X';
  e.pid = kModelPid;
  e.tid = base + static_cast<int>(track);
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.arg_name = arg_name;
  e.arg_value = arg_value;
  buffer.events.push_back(e);
}

std::vector<TraceEvent> TraceSession::Snapshot() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<TraceEvent> events;
  for (const auto& buffer : state.buffers) {
    events.insert(events.end(), buffer->events.begin(),
                  buffer->events.end());
  }
  return events;
}

std::vector<std::pair<int, std::string>> TraceSession::ThreadNames() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<std::pair<int, std::string>> names;
  for (const auto& buffer : state.buffers) {
    if (!buffer->name.empty()) names.emplace_back(buffer->tid, buffer->name);
  }
  return names;
}

std::vector<std::pair<int, std::string>> TraceSession::ModelTrackPrefixes() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return {state.model_prefixes.begin(), state.model_prefixes.end()};
}

std::size_t TraceSession::event_count() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::size_t n = 0;
  for (const auto& buffer : state.buffers) n += buffer->events.size();
  return n;
}

std::string TraceSession::ToChromeJson() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.Key("traceId");
  w.Uint(state.trace_id.load(std::memory_order_relaxed));
  w.Key("traceEvents");
  w.BeginArray();
  AppendMetadata(&w, "process_name", kWallPid, -1, "wall-clock");
  AppendMetadata(&w, "process_name", kModelPid, -1, "modelled platform");
  // Name every model track in use: the slot-0 block always, registered
  // slot blocks, plus any tid events actually landed on.
  std::set<int> model_tids;
  for (int track = kTrackPreDescend; track <= kTrackCpuLeaf; ++track) {
    model_tids.insert(track);
    for (const auto& [base, prefix] : state.model_prefixes) {
      model_tids.insert(base + track);
    }
  }
  for (const auto& buffer : state.buffers) {
    for (const TraceEvent& e : buffer->events) {
      if (e.pid == kModelPid) model_tids.insert(e.tid);
    }
  }
  for (const int tid : model_tids) {
    const int track = tid % kModelTrackStride;
    const int base = tid - track;
    std::string label;
    if (base != 0) {
      const auto it = state.model_prefixes.find(base);
      label = it != state.model_prefixes.end()
                  ? it->second
                  : "slot" + std::to_string(base / kModelTrackStride);
      label += '/';
    }
    label += ModelTrackName(track);
    AppendMetadata(&w, "thread_name", kModelPid, tid, label);
  }
  for (const auto& buffer : state.buffers) {
    char fallback[32];
    std::snprintf(fallback, sizeof(fallback), "thread %d", buffer->tid);
    AppendMetadata(&w, "thread_name", kWallPid, buffer->tid,
                   !buffer->name.empty() ? buffer->name : fallback);
  }
  for (const auto& buffer : state.buffers) {
    for (const TraceEvent& e : buffer->events) AppendEvent(&w, e);
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

bool TraceSession::WriteChromeJson(const std::string& path) {
  if (active()) return false;
  const std::string json = ToChromeJson();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), file);
  return written == json.size() && std::fclose(file) == 0;
}

}  // namespace hbtree::obs
