// Flight recorder: a bounded ring of recent request records that dumps
// automatically when the serving stack hits an anomaly, so chaos-suite
// failures and production incidents come with evidence attached.
//
// Every completed request — including service-level rejects that never
// reached a worker — appends one fixed-size record: signature, route,
// per-phase timing breakdown (queue / compile / WMC / GC), terminal
// status code, and the bytes the request's shard account moved. The
// ring holds the most recent `capacity` records; recording is one short
// mutex-guarded copy (requests complete at most a few hundred thousand
// times per second, far below where this section matters).
//
// Anomaly triggers (see NoteAnomaly callers in serve/):
//   - kQuarantineStrike : a signature burned a full double-route ladder
//   - kMemoryDenial     : governor denial/critical-tier compile reject
//   - kHangDetected     : supervisor declared a shard hung or dead
//   - kLatencyOutlier   : a request far above the live p99 estimate
// Each trigger counts always; a JSON dump of the ring is produced at
// most once per `min_dump_interval_ms` (kept in memory, and written to
// `dump_dir`/flight_<seq>.json when a directory is configured).
//
// Thread-safety: all methods are safe from any thread.

#ifndef CTSDD_OBS_FLIGHT_RECORDER_H_
#define CTSDD_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ctsdd::obs {

struct FlightRecord {
  uint64_t trace_id = 0;
  uint64_t query_sig = 0;
  uint64_t db_sig = 0;
  int shard = -1;
  int route = -1;       // serve PlanRoute as int; -1 = never routed
  int status_code = 0;  // StatusCode as int; 0 = OK
  bool cache_hit = false;
  bool degraded = false;
  bool hedged = false;   // answered by the hedge copy
  double queue_ms = 0;   // admission -> dequeue
  double compile_ms = 0; // lineage + compile (0 on cache hits)
  double wmc_ms = 0;     // weighted model count pass
  double total_ms = 0;
  int64_t bytes_charged = 0;  // shard-account byte delta over the request
  int plan_size = 0;
  double ts_ms = 0;  // completion time since recorder construction
};

enum class Anomaly : int {
  kQuarantineStrike = 0,
  kMemoryDenial = 1,
  kHangDetected = 2,
  kLatencyOutlier = 3,
};
inline constexpr int kAnomalyCount = 4;
const char* AnomalyName(Anomaly anomaly);

class FlightRecorder {
 public:
  struct Options {
    size_t capacity = 256;
    // Empty = in-memory dumps only (last_dump_json); otherwise dumps are
    // also written to <dump_dir>/flight_<seq>.json.
    std::string dump_dir;
    double min_dump_interval_ms = 250;
  };

  FlightRecorder();  // default Options
  explicit FlightRecorder(Options options);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Appends one completed-request record; fires kLatencyOutlier when the
  // record's total exceeds the configured outlier threshold.
  void Record(const FlightRecord& record);

  // Registers an anomaly, dumping the ring unless rate-limited.
  // `detail` may be any string (copied).
  void NoteAnomaly(Anomaly anomaly, const std::string& detail);

  // Live outlier bar for Record's kLatencyOutlier trigger; 0 (the
  // default) disables the trigger. Callers refresh it from the latency
  // histogram (e.g. 8 x p99) every so often.
  void SetLatencyOutlierMs(double ms) {
    outlier_ms_.store(ms, std::memory_order_relaxed);
  }

  uint64_t records() const {
    return total_records_.load(std::memory_order_relaxed);
  }
  uint64_t anomalies() const {
    return anomalies_.load(std::memory_order_relaxed);
  }
  uint64_t anomaly_count(Anomaly anomaly) const {
    return anomaly_counts_[static_cast<int>(anomaly)].load(
        std::memory_order_relaxed);
  }
  uint64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }

  // Oldest-first copy of the ring.
  std::vector<FlightRecord> Snapshot() const;

  // The ring as dump JSON, on demand (not rate-limited, not counted).
  std::string DumpJson(const std::string& reason) const;

  // Most recent anomaly dump ("" before the first).
  std::string last_dump_json() const;

 private:
  void DumpLocked(const std::string& reason);

  const Options options_;
  const std::chrono::steady_clock::time_point start_;

  std::atomic<uint64_t> total_records_{0};
  std::atomic<uint64_t> anomalies_{0};
  std::atomic<uint64_t> anomaly_counts_[kAnomalyCount] = {};
  std::atomic<uint64_t> dumps_{0};
  std::atomic<double> outlier_ms_{0};

  mutable std::mutex mu_;
  std::vector<FlightRecord> ring_;
  uint64_t written_ = 0;
  std::chrono::steady_clock::time_point last_dump_;
  bool dumped_once_ = false;
  std::string last_dump_json_;
};

}  // namespace ctsdd::obs

#endif  // CTSDD_OBS_FLIGHT_RECORDER_H_
