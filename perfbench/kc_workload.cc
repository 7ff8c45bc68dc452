// kc_compile: library use with no serving. Repeated passes over a fixed
// suite of the paper's circuit families, each entry compiled on a fresh
// manager with a work-stealing pool attached:
//
//   SDD  on the Lemma 1 vtree: primal graph -> min-fill decomposition ->
//        nice form -> VtreeFromNiceDecomposition.
//   OBDD on the BFS path-layout order of the primal graph.
//
// plus the serving route on an H0 lineage (lineage -> balanced vtree /
// tuple-id order) and ISA on its Appendix-A vtree. graph/, vtree/, sdd/,
// obdd/ and exec/ do all the work; this is the one workload with the pool
// attached. The seed shuffles the entry order of every pass.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "circuit/families.h"
#include "circuit/primal_graph.h"
#include "compile/isa.h"
#include "exec/task_pool.h"
#include "graph/path_decomposition.h"
#include "harness.h"
#include "layers.h"
#include "oracle.h"
#include "serve_inputs.h"
#include "util/random.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using namespace ctsdd;

constexpr int kPoolWorkers = 4;
// Random assignments on which each compiled diagram is checked against
// the circuit in the verification pass.
constexpr int kSpotChecks = 16;
constexpr uint64_t kTracedPasses = 2;

enum class Structure {
  kPathLayoutOrder,  // OBDD
  kTupleIdOrder,     // OBDD, serving route
  kLemma1Vtree,      // SDD
  kBalancedVtree,    // SDD, serving route
  kIsaVtree,         // SDD
};

bool IsSdd(Structure s) {
  return s != Structure::kPathLayoutOrder && s != Structure::kTupleIdOrder;
}

struct Entry {
  std::string name;
  int family = 0;      // entries of one circuit share it (and its weights)
  Circuit circuit;     // empty for lineage entries (built per compile)
  bool lineage = false;
  Structure structure = Structure::kLemma1Vtree;
};

struct Suite {
  Database h0_db = RandomContentDb(7, 28, /*seed=*/7);
  Ucq h0 = NonHierarchicalH0Query();
  IsaParams isa{2, 4};
  std::vector<Entry> entries;
};

Suite BuildSuite() {
  Suite suite;
  int family = 0;
  const auto add = [&](const std::string& name, const Circuit& c,
                       bool lineage, std::vector<Structure> structures) {
    for (const Structure s : structures) {
      suite.entries.push_back({name + (IsSdd(s) ? "/sdd" : "/obdd"), family,
                               c, lineage, s});
    }
    ++family;
  };
  const std::vector<Structure> both = {Structure::kPathLayoutOrder,
                                       Structure::kLemma1Vtree};
  add("ladder_8_3", LadderCircuit(8, 3), false, both);
  add("ladder_12_3", LadderCircuit(12, 3), false, both);
  add("ladder_16_3", LadderCircuit(16, 3), false, both);
  add("ladder_32_2", LadderCircuit(32, 2), false, both);
  add("banded_cnf_64_4", BandedCnfCircuit(64, 4), false, both);
  add("banded_cnf_128_4", BandedCnfCircuit(128, 4), false, both);
  // SDD only: the path-layout OBDD of a tree CNF does not fit in memory.
  add("tree_cnf_64", TreeCnfCircuit(64), false, {Structure::kLemma1Vtree});
  add("tree_cnf_128", TreeCnfCircuit(128), false, {Structure::kLemma1Vtree});
  add("h_chain_2_6_1", HChainCircuit(2, 6, 1), false, both);
  add("parity_128", ParityCircuit(128), false, both);
  add("h0_lineage_7", Circuit(), true,
      {Structure::kTupleIdOrder, Structure::kBalancedVtree});
  add("isa_2_4", IsaCircuit(suite.isa), false, {Structure::kIsaVtree});
  return suite;
}

std::vector<int> PathLayoutOrder(const Circuit& circuit) {
  std::vector<int> order;
  for (const int gate : BfsLayout(PrimalGraph(circuit))) {
    if (circuit.gate(gate).kind == GateKind::kVar) {
      order.push_back(circuit.gate(gate).var);
    }
  }
  return order;
}

// Probability weights of a circuit family, fixed for the run.
std::vector<double> FamilyWeights(const Circuit& circuit, uint64_t seed,
                                  int family) {
  Rng rng(Mix(seed, static_cast<uint64_t>(family)));
  std::vector<double> w(static_cast<size_t>(std::max(circuit.num_vars(), 1)));
  for (double& p : w) p = 0.1 + 0.8 * rng.NextDouble();
  return w;
}

struct Compiled {
  double ms = 0;  // lineage (serving route) + order/vtree + compile
  int nodes = 0;
  double probability = 0;
};

// Checks a compiled diagram against the circuit on kSpotChecks random
// assignments. `wmc` is the diagram's weighted model count; with weights
// of exactly 0 and 1 it evaluates the diagram on one assignment.
template <typename Wmc>
bool SpotCheck(const Circuit& circuit, uint64_t seed, const Wmc& wmc) {
  Rng rng(seed);
  std::vector<uint64_t> lanes(
      static_cast<size_t>(std::max(circuit.num_vars(), 1)));
  for (uint64_t& l : lanes) l = rng.Next64();
  const uint64_t expected = EvaluateLanes(circuit, lanes);
  std::vector<double> assignment(lanes.size());
  for (int k = 0; k < kSpotChecks; ++k) {
    for (size_t v = 0; v < lanes.size(); ++v) {
      assignment[v] = static_cast<double>((lanes[v] >> k) & 1);
    }
    if (wmc(assignment) != static_cast<double>((expected >> k) & 1)) {
      return false;
    }
  }
  return true;
}

// Compiles one entry on a fresh manager. With `verify`, also checks the
// diagram against the circuit (untimed) and returns false on mismatch.
bool CompileEntry(const Suite& suite, const Entry& entry, uint64_t seed,
                  exec::TaskPool* pool, bool verify, LayerTally* tally,
                  Compiled* out) {
  Timer timer;
  Circuit lineage;
  if (entry.lineage) {
    auto built = Lineage(suite.h0, suite.h0_db);
    if (!built.ok()) return false;
    lineage = std::move(built).value();
    tally->AddLineage(lineage);
  }
  const Circuit& circuit = entry.lineage ? lineage : entry.circuit;
  const std::vector<double> weights =
      FamilyWeights(circuit, seed, entry.family);
  const uint64_t check_seed =
      Mix(seed, 1000 + static_cast<uint64_t>(entry.family));
  if (!IsSdd(entry.structure)) {
    ObddManager manager(entry.structure == Structure::kPathLayoutOrder
                            ? PathLayoutOrder(circuit)
                            : circuit.Vars());
    manager.AttachExecutor(pool);
    const auto root = CompileObdd(&manager, circuit);
    out->ms = timer.ElapsedMillis();
    if (root < 0) return false;
    out->nodes = manager.Size(root);
    tally->AddObdd(out->nodes);
    out->probability = ObddWmc(manager, root, weights);
    if (!verify) return true;
    return SpotCheck(circuit, check_seed, [&](const std::vector<double>& w) {
      return ObddWmc(manager, root, w);
    });
  }
  StatusOr<Vtree> vtree = Status::Internal("unset");
  switch (entry.structure) {
    case Structure::kLemma1Vtree:
      vtree = Lemma1Vtree(circuit, Decompose(circuit));
      break;
    case Structure::kBalancedVtree:
      vtree = BalancedVtree(circuit);
      break;
    default:
      vtree = IsaVtree(suite.isa);
      break;
  }
  if (!vtree.ok()) return false;
  SddManager manager(std::move(vtree).value());
  manager.AttachExecutor(pool);
  const auto root = CompileSdd(&manager, circuit);
  out->ms = timer.ElapsedMillis();
  if (root < 0) return false;
  out->nodes = manager.Size(root);
  tally->AddSdd(manager, out->nodes);
  out->probability = SddWmc(manager, root, weights);
  if (!verify) return true;
  return SpotCheck(circuit, check_seed, [&](const std::vector<double>& w) {
    return SddWmc(manager, root, w);
  });
}

struct Record {
  int entry = 0;
  Compiled compiled;
};

// One pass over the suite in a seeded order.
void RunPass(const Suite& suite, uint64_t seed, uint64_t pass,
             exec::TaskPool* pool, LayerTally* tally,
             std::vector<Record>* records) {
  std::vector<int> order = Rng(Mix(seed, pass)).Permutation(
      static_cast<int>(suite.entries.size()));
  for (const int e : order) {
    Record rec;
    rec.entry = e;
    if (!CompileEntry(suite, suite.entries[static_cast<size_t>(e)], seed,
                      pool, /*verify=*/false, tally, &rec.compiled)) {
      rec.compiled.nodes = -1;  // counted as a failed compile
    }
    records->push_back(rec);
  }
}

}  // namespace

RunResult RunKcCompile(const RunOptions& options) {
  const Suite suite = BuildSuite();

  std::vector<double> setup_s;
  std::unique_ptr<exec::TaskPool> pool;
  LayerTally warmup_tally;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pool.reset();
    if (rep + 1 == kSetupReps) ResetPeakRss();
    Timer timer;
    pool = std::make_unique<exec::TaskPool>(kPoolWorkers);
    std::vector<Record> warmup;
    RunPass(suite, options.seed, 1000 + rep, pool.get(), &warmup_tally,
            &warmup);
    setup_s.push_back(timer.ElapsedSeconds());
  }

  // Reference values: one verified compile per entry. Entries compiled on
  // both routes must also agree with each other, and circuits small
  // enough for enumeration must match it.
  std::vector<Compiled> expected(suite.entries.size());
  for (size_t e = 0; e < suite.entries.size(); ++e) {
    const Entry& entry = suite.entries[e];
    if (!CompileEntry(suite, entry, options.seed, pool.get(),
                      /*verify=*/true, &warmup_tally, &expected[e])) {
      std::fprintf(stderr, "verification failed: %s\n", entry.name.c_str());
      std::exit(2);
    }
    if (!entry.lineage && entry.circuit.Vars().size() <=
                              static_cast<size_t>(kBruteForceMaxVars)) {
      const double brute =
          Reference(entry.circuit)
              .Probability(
                  FamilyWeights(entry.circuit, options.seed, entry.family));
      if (std::abs(brute - expected[e].probability) > kAnswerTolerance) {
        std::fprintf(stderr, "enumeration mismatch: %s\n", entry.name.c_str());
        std::exit(2);
      }
    }
  }
  for (size_t e = 0; e + 1 < suite.entries.size(); ++e) {
    if (suite.entries[e].family == suite.entries[e + 1].family &&
        std::abs(expected[e].probability - expected[e + 1].probability) >
            kAnswerTolerance) {
      std::fprintf(stderr, "OBDD and SDD disagree: %s\n",
                   suite.entries[e].name.c_str());
      std::exit(2);
    }
  }

  const bool traced = !options.trace_dir.empty();
  const uint64_t tasks0 = pool->tasks_run();
  const uint64_t steals0 = pool->steals();
  const uint64_t parks0 = pool->parks();
  if (traced) BeginTrace();
  LayerTally tally;
  std::vector<Record> records;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  // Whole passes only, so every run weighs the entries alike. A traced
  // run stops after kTracedPasses: every forked exec task records a span,
  // and more passes would overrun the trace rings.
  for (uint64_t pass = 0; std::chrono::steady_clock::now() < deadline &&
                          (!traced || pass < kTracedPasses);
       ++pass) {
    RunPass(suite, options.seed, pass, pool.get(), &tally, &records);
  }
  const double window_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double rss_mb = PeakRssMb();

  RunResult result;
  std::vector<Sample> samples;
  for (const Record& r : records) {
    ++result.attempted;
    if (r.compiled.nodes < 0) {
      ++result.failed;
      continue;
    }
    samples.push_back({r.entry, r.compiled.ms});
  }
  // Every window compile is checked equal to its entry's verified one, so
  // the mean over entries is the run's output size.
  double nodes = 0;
  for (const Compiled& c : expected) nodes += c.nodes;
  result.metrics.emplace_back("setup_s", Quantile(setup_s, 0.5));
  result.metrics.emplace_back("ops_per_s",
                              static_cast<double>(samples.size()) / window_s);
  AddLatencyMetrics(samples, &result.metrics);
  result.metrics.emplace_back("output_nodes",
                              nodes / static_cast<double>(expected.size()));
  result.metrics.emplace_back("peak_rss_mb", rss_mb);

  if (traced) {
    // Layers the window does not call per compile: the width prediction
    // the serving shard would run on each circuit.
    for (const Entry& entry : suite.entries) {
      if (entry.lineage) continue;
      PredictWidth(entry.circuit);
    }
    uint64_t dropped = 0;
    if (!EndTrace(options.trace_dir, &dropped)) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   options.trace_dir.c_str());
      std::exit(2);
    }
    NamedValues& c = result.counters;
    for (const char* name :
         {"plan_cache.hit_ratio", "plan_cache.evictions",
          "plan_cache.manager_evictions", "serve.compiles",
          "serve.peak_live_nodes", "gc.runs", "gc.reclaimed_nodes",
          "graph.width_cache.hit_ratio"}) {
      c.emplace_back(name, 0.0);  // no service in this workload
    }
    const double tasks = static_cast<double>(pool->tasks_run() - tasks0);
    const double steals = static_cast<double>(pool->steals() - steals0);
    c.emplace_back("exec.tasks_run", tasks);
    c.emplace_back("exec.steals", steals);
    c.emplace_back("exec.parks", static_cast<double>(pool->parks() - parks0));
    c.emplace_back("exec.steal_ratio", tasks == 0 ? 0.0 : steals / tasks);
    tally.AppendCounters(&c);
    c.emplace_back("trace.dropped_events", static_cast<double>(dropped));
  }

  if (options.self_test && !records.empty()) {
    records[0].compiled.probability += 1e-6;
  }
  for (const Record& r : records) {
    const Compiled& want = expected[static_cast<size_t>(r.entry)];
    if (r.compiled.nodes >= 0 &&
        (r.compiled.nodes != want.nodes ||
         std::abs(r.compiled.probability - want.probability) >
             kAnswerTolerance)) {
      ++result.wrong_answers;
    }
  }
  return result;
}

}  // namespace perfbench
