// Per-plan telemetry: every compiled plan carries a stats block that
// records how it was built (route, ladder hops, compile time, predicted
// width parameters) and how it performs (hit count, per-plan WMC
// latency histogram). This is the training set ROADMAP item 4's
// width-driven admission router learns from — predicted treewidth /
// pathwidth on one side, actual compiled node count on the other, one
// row per plan, harvested from live traffic by /plansz.
//
// Ownership and thread-safety: the stats block is shared_ptr-owned by
// the CompiledPlan (plan cache) AND by the PlanStatsRegistry's live
// table, so the debug server can enumerate plans without touching any
// shard's single-threaded cache. The split that makes cross-thread
// reads safe: descriptive fields are written by the compiling shard
// before Register() publishes the block and never after; the live
// counters (hits, wmc_us) are atomics / a concurrent histogram.
//
// Conservation: eviction merges the plan's histogram into the
// registry's "plan.evicted_wmc_us" registry histogram (lossless
// bucket-wise add) before dropping the live-table reference, so
//   sum(live plans' wmc counts) + evicted_wmc_us.count()
// equals total evaluations forever — no telemetry is lost when the
// cache turns over.

#ifndef CTSDD_SERVE_PLAN_STATS_H_
#define CTSDD_SERVE_PLAN_STATS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ctsdd {

struct PlanStats {
  // --- Immutable after Register() publishes the block ---------------
  uint64_t query_sig = 0;
  uint64_t db_sig = 0;
  int shard = -1;
  int route = 0;            // PlanRoute actually compiled (as int)
  int requested_route = 0;  // PlanRoute the client asked for
  int ladder_hops = 1;      // CompileRoute attempts consumed (2 = fallback)
  uint64_t compile_us = 0;
  bool is_constant = false;

  // Compiled-object shape.
  uint64_t nodes = 0;        // plan size (OBDD nodes / SDD elements)
  uint64_t edges = 0;        // child pointers (2 per node/element)
  uint64_t width = 0;        // route-specific width of the compiled form
  int lineage_gates = 0;
  int num_vars = 0;

  // Width-engine predictions (-1 = not run / not applicable). The
  // heuristic is a min-fill upper bound on the lineage circuit's
  // treewidth; exact values only for circuits small enough for the
  // exact engines.
  int predicted_treewidth = -1;
  int exact_treewidth = -1;
  int exact_pathwidth = -1;

  // --- Live counters (concurrent-safe) ------------------------------
  std::atomic<uint64_t> hits{0};  // cache hits (first compile not counted)
  obs::Histogram wmc_us;          // per-evaluation WMC latency

  uint64_t evaluations() const { return wmc_us.count(); }
};

// Process-wide side table of live plan stats plus the merge target for
// evicted ones. Shared by every shard of a service; all methods are
// thread-safe.
class PlanStatsRegistry {
 public:
  explicit PlanStatsRegistry(obs::MetricsRegistry* metrics);

  // Publishes a fully-initialized stats block into the live table.
  void Register(std::shared_ptr<PlanStats> stats);

  // Eviction hook (also covers shard restart and cache destruction —
  // every PlanCache removal funnels through its on_evict): merges the
  // plan's histogram and counters into the registry totals, then drops
  // the live reference.
  void OnEviction(const std::shared_ptr<PlanStats>& stats);

  // Stable snapshot of every live plan's stats block.
  std::vector<std::shared_ptr<PlanStats>> Snapshot() const;

  size_t live_plans() const;
  uint64_t evicted_plans() const { return evicted_plans_->value(); }

  // Merge target for evicted per-plan WMC histograms (conservation
  // partner of the live blocks' wmc_us).
  const obs::Histogram& evicted_wmc_us() const { return *evicted_wmc_us_; }

 private:
  obs::Histogram* evicted_wmc_us_;
  obs::Counter* evicted_plans_;
  obs::Counter* evicted_hits_;
  obs::Counter* evicted_evals_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<PlanStats>> live_;
};

}  // namespace ctsdd

#endif  // CTSDD_SERVE_PLAN_STATS_H_
