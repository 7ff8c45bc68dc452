// Supervision layer for the query service: detection, containment, and
// repair of shard failures.
//
// The supervisor is one thread scanning the shard slots a few times per
// heartbeat window. Detection is heartbeat-based: every ShardWorker
// stamps an atomic progress counter at each job phase, so
//   - hung  = busy with unchanged progress for longer than
//     ServeOptions::heartbeat_window_ms (a stall anywhere in a phase —
//     the window must exceed the worst-case single compile), and
//   - dead  = the worker thread exited without being asked (a crash
//     simulated by the serve.shard.death fault site).
//
// Repair is a restart: a fresh worker (empty plan cache) is swapped
// into the slot first, so new traffic flows immediately; then the old
// worker is retired — its queued jobs are stolen and failed typed
// UNAVAILABLE with a retry hint (never silently dropped), its in-flight
// job is failed the same way and its registered compile budget
// cancelled so a budget-bound hang unwinds, and the carcass is kept
// until its thread actually exits (joining a hung thread would block
// the supervisor), then destroyed. Recompiles on the fresh worker give
// the same answers by canonicity.

#ifndef CTSDD_SERVE_SUPERVISOR_H_
#define CTSDD_SERVE_SUPERVISOR_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "serve/serve_stats.h"
#include "serve/shard.h"

namespace ctsdd {

// One slot in the service's shard table. The worker pointer is swapped
// under the slot mutex on restart; clients copy the shared_ptr out and
// submit outside the lock (a retiring worker sheds the stray submit).
struct ShardSlot {
  mutable std::mutex mu;
  std::shared_ptr<ShardWorker> worker;

  std::shared_ptr<ShardWorker> Get() const {
    std::lock_guard<std::mutex> lock(mu);
    return worker;
  }
};

class Supervisor {
 public:
  using WorkerFactory = std::function<std::shared_ptr<ShardWorker>(int)>;

  // `slots` must outlive the supervisor (the service destroys the
  // supervisor first). `factory` builds a replacement worker for a slot.
  // `metrics` receives the supervision counters and the requests failed
  // by restarts. `flight` (may be null) receives hang/death anomalies and
  // one record per request failed by a restart.
  Supervisor(const ServeOptions& options,
             std::vector<std::unique_ptr<ShardSlot>>* slots,
             ServeMetrics* metrics, obs::FlightRecorder* flight,
             WorkerFactory factory);
  ~Supervisor();  // stops the scan thread, then drains retired workers

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

 private:
  struct Seen {
    uint64_t progress = 0;
    std::chrono::steady_clock::time_point at;
  };

  void Loop();
  void ScanOnce(std::chrono::steady_clock::time_point now);
  // Swaps a fresh worker into slot `i`, fails the old worker's queued +
  // in-flight jobs typed, and parks the carcass for reaping.
  void Restart(size_t i, std::shared_ptr<ShardWorker> old,
               std::chrono::steady_clock::time_point now);
  // Destroys retired workers whose threads have exited.
  void Reap();

  const ServeOptions options_;
  std::vector<std::unique_ptr<ShardSlot>>* const slots_;
  ServeMetrics* const metrics_;
  obs::FlightRecorder* const flight_;  // may be null
  const WorkerFactory factory_;

  std::vector<Seen> seen_;  // scan-thread only

  std::mutex retired_mu_;
  std::vector<std::shared_ptr<ShardWorker>> retired_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace ctsdd

#endif  // CTSDD_SERVE_SUPERVISOR_H_
