#include "util/mem_governor.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "util/budget.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace ctsdd {
namespace {

thread_local bool t_fail_next_reservation = false;

}  // namespace

struct MemGovernor::Registry {
  std::mutex mu;
  std::vector<CompileReg> compiles;
};

MemGovernor::Registry& MemGovernor::registry() {
  Registry* reg = registry_.load(std::memory_order_acquire);
  if (reg == nullptr) {
    Registry* fresh = new Registry();
    if (registry_.compare_exchange_strong(reg, fresh,
                                          std::memory_order_acq_rel)) {
      reg = fresh;
    } else {
      delete fresh;  // lost the race; reg holds the winner
    }
  }
  return *reg;
}

MemGovernor::~MemGovernor() {
  // Every attached account and registered compile must already be gone
  // (serving tears shards down before its governor). The registry is
  // only lazily created, so this is usually a null delete.
  delete registry_.load(std::memory_order_acquire);
}

MemGovernor* MemGovernor::Process() {
  static MemGovernor* instance = new MemGovernor();
  return instance;
}

void MemGovernor::SetWatermarks(uint64_t soft_bytes, uint64_t hard_bytes) {
  if (hard_bytes > 0 && soft_bytes == 0) {
    soft_bytes = hard_bytes - hard_bytes / 4;
  }
  soft_.store(soft_bytes, std::memory_order_relaxed);
  hard_.store(hard_bytes, std::memory_order_relaxed);
}

MemGovernor::Tier MemGovernor::tier() const {
  return static_cast<Tier>(tier_.load(std::memory_order_relaxed));
}

void MemGovernor::OnCharge(int64_t delta) {
  const int64_t signed_now =
      bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
  const uint64_t now =
      signed_now > 0 ? static_cast<uint64_t>(signed_now) : 0;
  uint64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now,
                                      std::memory_order_relaxed)) {
  }
  const uint64_t hard = hard_.load(std::memory_order_relaxed);
  if (hard == 0) return;
  const uint64_t soft = soft_.load(std::memory_order_relaxed);
  // Critical opens 3/4 of the way from soft to hard: enough runway that
  // admission rejection still precedes any denial storm at the ceiling.
  const uint64_t critical = soft + (hard - std::min(hard, soft)) / 4 * 3;
  const int next = now >= critical ? 2 : (now >= soft ? 1 : 0);
  const int prev = tier_.exchange(next, std::memory_order_relaxed);
  if (next > prev) {
    if (next >= 1 && prev < 1) {
      soft_transitions_.fetch_add(1, std::memory_order_relaxed);
    }
    if (next >= 2 && prev < 2) {
      critical_transitions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (delta > 0 && now > hard) {
    // Every reserving path checks AdmitProjected first, so this is
    // unreachable by construction; counting it keeps the claim testable,
    // and cancel-largest claws the overshoot back immediately.
    hard_breaches_.fetch_add(1, std::memory_order_relaxed);
    CancelLargestCompile();
  }
}

bool MemGovernor::AdmitProjected(uint64_t projected_bytes) {
  if (!enabled()) return true;
  CTSDD_FAULT_POINT_COARSE("mem.reserve");
  if (t_fail_next_reservation) {
    t_fail_next_reservation = false;
    injected_denials_.fetch_add(1, std::memory_order_relaxed);
    admit_denials_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const uint64_t hard = hard_.load(std::memory_order_relaxed);
  if (bytes() + projected_bytes <= hard) return true;
  admit_denials_.fetch_add(1, std::memory_order_relaxed);
  // The denied compile trips itself; also cancel the largest in-flight
  // compile so the bytes backing the denial actually become reclaimable
  // (its manager, partial nodes and all, is destroyed when it unwinds).
  CancelLargestCompile();
  return false;
}

bool MemGovernor::AllowOptionalGrowth(uint64_t growth_bytes) {
  if (!enabled()) return true;
  const uint64_t soft = soft_.load(std::memory_order_relaxed);
  if (bytes() + growth_bytes <= soft) return true;
  optional_growth_denials_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void MemGovernor::RegisterCompile(WorkBudget* budget,
                                  const MemAccount* account) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.compiles.push_back({budget, account});
}

void MemGovernor::UnregisterCompile(WorkBudget* budget) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (size_t i = 0; i < reg.compiles.size(); ++i) {
    if (reg.compiles[i].budget == budget) {
      reg.compiles[i] = reg.compiles.back();
      reg.compiles.pop_back();
      return;
    }
  }
}

bool MemGovernor::CancelLargestCompile() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  WorkBudget* victim = nullptr;
  uint64_t victim_bytes = 0;
  for (const CompileReg& c : reg.compiles) {
    if (c.budget->tripped()) continue;
    const uint64_t b = c.account != nullptr ? c.account->bytes() : 0;
    if (victim == nullptr || b > victim_bytes) {
      victim = c.budget;
      victim_bytes = b;
    }
  }
  if (victim == nullptr) return false;
  victim->MarkMemoryPressure();
  victim->Cancel(StatusCode::kResourceExhausted);
  compile_cancels_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void MemGovernor::FailNextReservationOnCurrentThread() {
  t_fail_next_reservation = true;
}

}  // namespace ctsdd
