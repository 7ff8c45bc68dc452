#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "obs/profiler.h"
#include "util/spinlock.h"

namespace ctsdd::obs {

namespace internal {
std::atomic<bool> g_armed{false};
}  // namespace internal

namespace {

std::atomic<uint64_t> g_next_trace_id{1};
std::atomic<uint32_t> g_next_span_id{1};
std::atomic<size_t> g_capacity{size_t{1} << 14};

// One thread's event ring. Registered into a process-wide list and kept
// alive by shared_ptr past thread exit, so Snapshot after a worker has
// been joined still sees its events. The spinlock is uncontended in
// steady state (the owner thread records; Snapshot/Clear are rare
// coordinator calls) — the cost per event is one uncontended RMW pair.
struct ThreadBuffer {
  SpinLock lock;
  std::vector<TraceEvent> ring;  // allocated lazily at first record
  uint64_t written = 0;          // total appended (>= ring.size() => wrapped)
  std::string name;
  int tid = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: threads outlive main
  return *r;
}

std::atomic<uint64_t> g_dropped{0};

// Thread-local recording state: the buffer plus the ambient span the
// next nested TraceSpan parents under.
struct ThreadState {
  std::shared_ptr<ThreadBuffer> buffer;
  uint64_t current_trace = 0;
  uint32_t current_span = 0;
};

ThreadState& State() {
  thread_local ThreadState state;
  if (state.buffer == nullptr) {
    state.buffer = std::make_shared<ThreadBuffer>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    state.buffer->tid = static_cast<int>(r.buffers.size()) + 1;
    r.buffers.push_back(state.buffer);
  }
  return state;
}

void Push(const TraceEvent& event) {
  ThreadBuffer& buf = *State().buffer;
  SpinLockGuard guard(buf.lock);
  if (buf.ring.empty()) {
    buf.ring.resize(g_capacity.load(std::memory_order_relaxed));
  }
  if (buf.written >= buf.ring.size()) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  buf.ring[buf.written % buf.ring.size()] = event;
  ++buf.written;
}

std::chrono::steady_clock::time_point Epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

void AppendEscaped(std::string* out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", c);
      *out += hex;
    } else {
      out->push_back(c);
    }
  }
}

double TraceNowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch())
      .count();
}

uint64_t NewTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

uint32_t NewSpanId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

void SetCurrentThreadName(const std::string& name) {
  {
    ThreadBuffer& buf = *State().buffer;
    SpinLockGuard guard(buf.lock);
    buf.name = name;
  }
  // Every named thread is a profiling candidate; registration is
  // idempotent and costs one TLS check after the first call.
  Profiler::RegisterCurrentThread(name);
}

TraceContext CurrentContext() {
  if (!TraceArmed()) return {};
  ThreadState& state = State();
  return {state.current_trace, state.current_span};
}

void RecordEvent(const TraceEvent& event) { Push(event); }

void TraceInstant(const char* cat, const char* name, TraceContext ctx,
                  const char* arg_name, uint64_t arg) {
  if (!TraceArmed()) return;
  ThreadState& state = State();
  TraceEvent e;
  e.cat = cat;
  e.name = name;
  e.phase = 'i';
  e.trace_id = ctx.trace_id != 0 ? ctx.trace_id : state.current_trace;
  e.parent_span = ctx.span_id != 0 ? ctx.span_id : state.current_span;
  e.ts_us = TraceNowUs();
  e.arg1_name = arg_name;
  e.arg1 = arg;
  Push(e);
}

void TraceCompleteSince(const char* cat, const char* name, double start_us,
                        TraceContext ctx) {
  if (!TraceArmed()) return;
  ThreadState& state = State();
  TraceEvent e;
  e.cat = cat;
  e.name = name;
  e.phase = 'X';
  e.span_id = NewSpanId();
  e.trace_id = ctx.trace_id != 0 ? ctx.trace_id : state.current_trace;
  e.parent_span = ctx.span_id != 0 ? ctx.span_id : state.current_span;
  e.ts_us = start_us;
  e.dur_us = TraceNowUs() - start_us;
  if (e.dur_us < 0) e.dur_us = 0;
  Push(e);
}

void TraceAsyncBegin(const char* cat, const char* name, uint64_t trace_id) {
  if (!TraceArmed()) return;
  TraceEvent e;
  e.cat = cat;
  e.name = name;
  e.phase = 'b';
  e.trace_id = trace_id;
  e.ts_us = TraceNowUs();
  Push(e);
}

void TraceAsyncEnd(const char* cat, const char* name, uint64_t trace_id) {
  if (!TraceArmed()) return;
  TraceEvent e;
  e.cat = cat;
  e.name = name;
  e.phase = 'e';
  e.trace_id = trace_id;
  e.ts_us = TraceNowUs();
  Push(e);
}

void TraceAsyncSince(const char* cat, const char* name, uint64_t trace_id,
                     double start_us) {
  if (!TraceArmed()) return;
  TraceEvent b;
  b.cat = cat;
  b.name = name;
  b.phase = 'b';
  b.trace_id = trace_id;
  b.ts_us = start_us;
  Push(b);
  TraceEvent e;
  e.cat = cat;
  e.name = name;
  e.phase = 'e';
  e.trace_id = trace_id;
  e.ts_us = TraceNowUs();
  if (e.ts_us < start_us) e.ts_us = start_us;
  Push(e);
}

TraceSpan::TraceSpan(const char* cat, const char* name, TraceContext ctx)
    : armed_(TraceArmed()), cat_(cat), name_(name) {
  if (!armed_) return;
  ThreadState& state = State();
  saved_trace_ = state.current_trace;
  saved_span_ = state.current_span;
  trace_id_ = ctx.trace_id != 0 ? ctx.trace_id : state.current_trace;
  parent_span_ = ctx.span_id != 0 ? ctx.span_id : state.current_span;
  span_id_ = NewSpanId();
  state.current_trace = trace_id_;
  state.current_span = span_id_;
  start_us_ = TraceNowUs();
}

TraceSpan::~TraceSpan() {
  if (!armed_) return;
  ThreadState& state = State();
  state.current_trace = saved_trace_;
  state.current_span = saved_span_;
  TraceEvent e;
  e.cat = cat_;
  e.name = name_;
  e.phase = 'X';
  e.span_id = span_id_;
  e.parent_span = parent_span_;
  e.trace_id = trace_id_;
  e.ts_us = start_us_;
  e.dur_us = TraceNowUs() - start_us_;
  if (e.dur_us < 0) e.dur_us = 0;
  e.arg1_name = arg1_name_;
  e.arg1 = arg1_;
  e.arg2_name = arg2_name_;
  e.arg2 = arg2_;
  Push(e);
}

void Tracer::Arm(size_t events_per_thread) {
#ifdef CTSDD_NO_TRACE
  (void)events_per_thread;
#else
  g_capacity.store(events_per_thread == 0 ? 1 : events_per_thread,
                   std::memory_order_relaxed);
  internal::g_armed.store(true, std::memory_order_release);
#endif
}

void Tracer::Disarm() {
  internal::g_armed.store(false, std::memory_order_release);
}

std::vector<TraceEvent> Tracer::Snapshot(std::vector<int>* tids) {
  std::vector<TraceEvent> out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& buf : r.buffers) {
    SpinLockGuard guard(buf->lock);
    if (buf->ring.empty()) continue;
    const uint64_t n = buf->written < buf->ring.size()
                           ? buf->written
                           : static_cast<uint64_t>(buf->ring.size());
    const uint64_t first = buf->written - n;
    for (uint64_t i = 0; i < n; ++i) {
      out.push_back(buf->ring[(first + i) % buf->ring.size()]);
      if (tids != nullptr) tids->push_back(buf->tid);
    }
  }
  return out;
}

std::vector<std::string> Tracer::ThreadNames() {
  std::vector<std::string> out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& buf : r.buffers) {
    SpinLockGuard guard(buf->lock);
    out.push_back(buf->name);
  }
  return out;
}

uint64_t Tracer::Dropped() {
  return g_dropped.load(std::memory_order_relaxed);
}

void Tracer::Clear() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& buf : r.buffers) {
    SpinLockGuard guard(buf->lock);
    buf->written = 0;
  }
  g_dropped.store(0, std::memory_order_relaxed);
}

std::string Tracer::ChromeTraceJson() {
  std::vector<int> tids;
  const std::vector<TraceEvent> events = Snapshot(&tids);
  std::string out;
  out.reserve(events.size() * 160 + 256);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit_prefix = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  // Thread-name metadata rows first, so Perfetto labels the tracks.
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto& buf : r.buffers) {
      SpinLockGuard guard(buf->lock);
      if (buf->name.empty()) continue;
      emit_prefix();
      char head[96];
      std::snprintf(head, sizeof(head),
                    "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                    "\"name\":\"thread_name\",\"args\":{\"name\":\"",
                    buf->tid);
      out += head;
      AppendEscaped(&out, buf->name);
      out += "\"}}";
    }
  }
  char num[352];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    emit_prefix();
    out += "{\"ph\":\"";
    out.push_back(e.phase);
    out += "\",\"pid\":1,\"cat\":\"";
    out += e.cat != nullptr ? e.cat : "misc";
    out += "\",\"name\":\"";
    out += e.name != nullptr ? e.name : "?";
    out += "\"";
    std::snprintf(num, sizeof(num), ",\"tid\":%d,\"ts\":%.3f", tids[i],
                  e.ts_us);
    out += num;
    if (e.phase == 'X') {
      std::snprintf(num, sizeof(num), ",\"dur\":%.3f", e.dur_us);
      out += num;
    }
    if (e.phase == 'b' || e.phase == 'e') {
      std::snprintf(num, sizeof(num), ",\"id\":\"%llx\"",
                    static_cast<unsigned long long>(e.trace_id));
      out += num;
    }
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    std::snprintf(num, sizeof(num),
                  ",\"args\":{\"trace_id\":%llu,\"span_id\":%u,"
                  "\"parent_span\":%u",
                  static_cast<unsigned long long>(e.trace_id), e.span_id,
                  e.parent_span);
    out += num;
    if (e.arg1_name != nullptr) {
      std::snprintf(num, sizeof(num), ",\"%s\":%llu", e.arg1_name,
                    static_cast<unsigned long long>(e.arg1));
      out += num;
    }
    if (e.arg2_name != nullptr) {
      std::snprintf(num, sizeof(num), ",\"%s\":%llu", e.arg2_name,
                    static_cast<unsigned long long>(e.arg2));
      out += num;
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) {
  const std::string json = ChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return n == json.size();
}

}  // namespace ctsdd::obs
