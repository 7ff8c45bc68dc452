#include "serve/supervisor.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace ctsdd {

namespace {

double SinceMs(std::chrono::steady_clock::time_point then,
               std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - then).count();
}

}  // namespace

Supervisor::Supervisor(const ServeOptions& options,
                       std::vector<std::unique_ptr<ShardSlot>>* slots,
                       ServeMetrics* metrics, obs::FlightRecorder* flight,
                       WorkerFactory factory)
    : options_(options),
      slots_(slots),
      metrics_(metrics),
      flight_(flight),
      factory_(std::move(factory)),
      seen_(slots->size()),
      thread_(&Supervisor::Loop, this) {}

Supervisor::~Supervisor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // Destroy the carcasses: their destructors join, which blocks until a
  // hung worker's (finite) stall elapses.
  std::lock_guard<std::mutex> lock(retired_mu_);
  retired_.clear();
}

void Supervisor::Loop() {
  // Scan a few times per heartbeat window so detection latency is a
  // fraction of the window, not a multiple of it.
  const double period_ms = std::max(0.5, options_.heartbeat_window_ms / 4.0);
  const auto period = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(period_ms));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, period, [&] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    ScanOnce(std::chrono::steady_clock::now());
    lock.lock();
  }
}

void Supervisor::ScanOnce(std::chrono::steady_clock::time_point now) {
  Reap();
  for (size_t i = 0; i < slots_->size(); ++i) {
    std::shared_ptr<ShardWorker> worker = (*slots_)[i]->Get();
    if (worker->exited()) {
      // The supervisor never asked this worker to stop, so an exited
      // thread is a crash.
      metrics_->deaths_detected->Add();
      if (flight_ != nullptr) {
        flight_->NoteAnomaly(
            obs::Anomaly::kHangDetected,
            "shard " + std::to_string(i) + ": worker thread died");
      }
      obs::TraceInstant("serve", "shard.death", {},
                        "shard", static_cast<uint64_t>(i));
      Restart(i, std::move(worker), now);
      continue;
    }
    if (worker->busy()) {
      const uint64_t progress = worker->progress();
      if (progress != seen_[i].progress) {
        seen_[i] = {progress, now};
      } else if (SinceMs(seen_[i].at, now) > options_.heartbeat_window_ms) {
        metrics_->hangs_detected->Add();
        if (flight_ != nullptr) {
          flight_->NoteAnomaly(
              obs::Anomaly::kHangDetected,
              "shard " + std::to_string(i) + ": no progress for window");
        }
        obs::TraceInstant("serve", "shard.hang", {},
                          "shard", static_cast<uint64_t>(i));
        Restart(i, std::move(worker), now);
      }
      continue;
    }
    seen_[i] = {worker->progress(), now};
  }
}

void Supervisor::Restart(size_t i, std::shared_ptr<ShardWorker> old,
                         std::chrono::steady_clock::time_point now) {
  metrics_->shard_restarts->Add();
  // Fresh worker first: new traffic flows while the carcass drains. Its
  // recompiles give the same answers by canonicity.
  std::shared_ptr<ShardWorker> fresh = factory_(static_cast<int>(i));
  {
    std::lock_guard<std::mutex> lock((*slots_)[i]->mu);
    (*slots_)[i]->worker = std::move(fresh);
  }
  // Park the carcass for reaping; it keeps its share of the resident
  // gauges until it is destroyed.
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    retired_.push_back(old);
  }
  std::vector<std::shared_ptr<JobState>> orphans;
  old->Retire(&orphans);
  for (const std::shared_ptr<JobState>& job : orphans) {
    QueryResponse response;
    response.status =
        Status::Unavailable("shard restarted; retry");
    response.shard = static_cast<int>(i);
    // Backoff hint: the fresh worker is accepting immediately, but give
    // clients one detection window so a retry storm does not land while
    // the carcass still holds the CPU.
    response.retry_after_ms =
        std::clamp(options_.heartbeat_window_ms, 0.1,
                   std::max(0.1, options_.retry_after_max_ms));
    // Claim may fail if the in-flight job's worker answered in the
    // meantime — then there is nothing to fail. The winner path cancels
    // the worker's registered budget so a budget-bound stall unwinds
    // instead of running to completion. Counter bumps precede Publish so
    // a stats() racing the batch return sees them.
    if (job->TryClaim()) {
      job->CancelBudget();
      metrics_->failed_on_restart->Add();
      metrics_->requests->Add();
      metrics_->failures->Add();
      if (flight_ != nullptr) {
        // Restart failures bypass the worker's FinishJob path; account
        // for them here so the ring covers every typed rejection.
        obs::FlightRecord rec;
        rec.trace_id = job->trace.trace_id;
        rec.query_sig = job->key.query_sig;
        rec.db_sig = job->key.db_sig;
        rec.shard = static_cast<int>(i);
        rec.status_code = static_cast<int>(StatusCode::kUnavailable);
        flight_->Record(rec);
      }
      job->Publish(response);
    }
  }
  seen_[i] = {0, now};
}

void Supervisor::Reap() {
  std::lock_guard<std::mutex> lock(retired_mu_);
  for (auto it = retired_.begin(); it != retired_.end();) {
    if ((*it)->exited()) {
      it = retired_.erase(it);  // destructor joins an exited thread: fast
    } else {
      ++it;
    }
  }
}

}  // namespace ctsdd
