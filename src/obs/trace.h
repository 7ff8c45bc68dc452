// Structured tracing: request-scoped spans recorded into per-thread
// ring buffers, exportable as Chrome trace-event JSON (Perfetto).
//
// The design center is the disarmed cost: TraceArmed() is one relaxed
// load of a global flag, and every instrumentation site is guarded by
// it, so a service that never arms the tracer pays a load + predictable
// branch per site (and building with -DCTSDD_NO_TRACE folds even that
// to a constant). When armed, each thread appends fixed-size POD events
// to its own bounded ring buffer — no shared structure is touched on
// the hot path, so recording threads never contend with each other.
// Buffers wrap (oldest events are overwritten, counted in dropped()),
// making the tracer safe to leave armed indefinitely.
//
// Propagation model: a TraceContext is {trace_id, span_id}. Within one
// thread, parentage is implicit — TraceSpan maintains a thread-local
// current-span, and a nested span parents under it. Across a hand-off
// (service thread -> shard queue, forker -> exec worker) the producer captures CurrentContext() into the
// work item and the consumer passes it to its root TraceSpan, whose
// explicit fields override the consumer thread's ambient context.
//
// Event names and categories must be string literals (the buffer stores
// the pointers); per-thread track names may be dynamic.
//
// Thread-safety: everything here may be called from any thread. Arm /
// Disarm / Snapshot are intended for a coordinator (bench main, test
// body); Snapshot while producers are recording is safe but sees a
// torn-across-threads view, so export quiescent for coherent traces.

#ifndef CTSDD_OBS_TRACE_H_
#define CTSDD_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ctsdd::obs {

// Request correlation handle threaded through hand-offs. trace_id 0
// means "not part of a traced request" (events still record, tied to
// whatever the recording thread was doing); span_id 0 means "no
// explicit parent — use the consuming thread's current span".
struct TraceContext {
  uint64_t trace_id = 0;
  uint32_t span_id = 0;
};

// One fixed-size buffer entry. `phase` follows the Chrome trace-event
// phases used here: 'X' complete (ts + dur), 'i' instant, 'b'/'e'
// async begin/end (request lifetime tracks, id = trace_id).
struct TraceEvent {
  const char* cat = nullptr;
  const char* name = nullptr;
  char phase = 'X';
  uint32_t span_id = 0;
  uint32_t parent_span = 0;
  uint64_t trace_id = 0;
  double ts_us = 0;
  double dur_us = 0;
  // Up to two optional integer args (names are literals, null = unset).
  const char* arg1_name = nullptr;
  uint64_t arg1 = 0;
  const char* arg2_name = nullptr;
  uint64_t arg2 = 0;
};

namespace internal {
extern std::atomic<bool> g_armed;
}  // namespace internal

#ifdef CTSDD_NO_TRACE
// Compiled-out baseline: every guard folds to `if (false)`.
inline constexpr bool TraceArmed() { return false; }
#else
inline bool TraceArmed() {
  return internal::g_armed.load(std::memory_order_relaxed);
}
#endif

// Microseconds since the tracer's process-local epoch (steady clock).
double TraceNowUs();

// Fresh nonzero ids (process-wide atomic counters).
uint64_t NewTraceId();
uint32_t NewSpanId();

// Labels the calling thread's track in exported traces ("shard-3",
// "exec-1", ...). Idempotent; cheap enough to call per thread start.
void SetCurrentThreadName(const std::string& name);

// Appends `s` to `out` as the contents of a JSON string literal: quotes
// and backslashes escaped, control characters as \uXXXX. Shared by the
// trace exporter and the flight recorder.
void AppendEscaped(std::string* out, const std::string& s);

// The calling thread's innermost open armed span, for hand-off capture.
// Zeros when disarmed or no span is open.
TraceContext CurrentContext();

// Low-level append to the calling thread's buffer (no armed check).
void RecordEvent(const TraceEvent& event);

// Instant event ('i'), attached under `ctx` (or the thread's current
// span when ctx is zero). No-op when disarmed.
void TraceInstant(const char* cat, const char* name, TraceContext ctx = {},
                  const char* arg_name = nullptr, uint64_t arg = 0);

// Complete event ('X') whose start was sampled earlier by the caller
// (e.g. queue-wait measured from a submit timestamp). No-op disarmed.
void TraceCompleteSince(const char* cat, const char* name, double start_us,
                        TraceContext ctx = {});

// Async request-lifetime track: begin at admission, end exactly once at
// publish. Pairs match on (cat, name, trace_id). No-ops when disarmed.
void TraceAsyncBegin(const char* cat, const char* name, uint64_t trace_id);
void TraceAsyncEnd(const char* cat, const char* name, uint64_t trace_id);

// Back-dated async span on the request track: emits a 'b' at `start_us`
// and an 'e' at now, in one call from the consuming thread. For
// intervals that are not thread-scoped — a queue wait starts while the
// dequeuing worker is busy with earlier work, so recording it as an 'X'
// on that worker's track would break per-thread span nesting. Nests
// under the request's (cat, trace_id) async track. No-op when disarmed.
void TraceAsyncSince(const char* cat, const char* name, uint64_t trace_id,
                     double start_us);

// RAII complete-event span. Captures the armed flag at construction, so
// a span closes consistently even if the tracer disarms mid-flight.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name, TraceContext ctx = {});
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void AddArg(const char* name, uint64_t value) {
    arg1_name_ = name;
    arg1_ = value;
  }
  void AddArg2(const char* name, uint64_t value) {
    arg2_name_ = name;
    arg2_ = value;
  }

  bool armed() const { return armed_; }
  uint32_t span_id() const { return span_id_; }
  uint64_t trace_id() const { return trace_id_; }

 private:
  bool armed_;
  const char* cat_;
  const char* name_;
  uint64_t trace_id_ = 0;
  uint32_t span_id_ = 0;
  uint32_t parent_span_ = 0;
  uint64_t saved_trace_ = 0;
  uint32_t saved_span_ = 0;
  double start_us_ = 0;
  const char* arg1_name_ = nullptr;
  uint64_t arg1_ = 0;
  const char* arg2_name_ = nullptr;
  uint64_t arg2_ = 0;
};

// Coordinator surface. All static: the tracer is process-wide, like the
// fault-injection registry — per-service tracers would force every
// instrumentation site in managers and exec to thread a handle.
class Tracer {
 public:
  // Arms recording. `events_per_thread` sizes each thread's ring (first
  // arm wins for threads that already allocated; new threads use the
  // latest value). Idempotent while armed.
  static void Arm(size_t events_per_thread = size_t{1} << 14);
  static void Disarm();

  // Copies out every buffered event, oldest-first per thread. The
  // per-event thread index (into thread_names()) rides in `tids` when
  // non-null, aligned with the returned vector.
  static std::vector<TraceEvent> Snapshot(std::vector<int>* tids = nullptr);
  static std::vector<std::string> ThreadNames();

  // Events overwritten by ring wraparound since the last Clear().
  static uint64_t Dropped();

  // Drops buffered events (keeps buffers and registrations).
  static void Clear();

  // Chrome trace-event JSON ({"traceEvents": [...]}); Perfetto-loadable.
  static std::string ChromeTraceJson();
  static bool WriteChromeTrace(const std::string& path);
};

}  // namespace ctsdd::obs

#endif  // CTSDD_OBS_TRACE_H_
