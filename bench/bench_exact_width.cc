// Exact-width engine benchmark: the pruned branch-and-bound solvers
// (graph/exact_treewidth.h) on partial k-trees up to 32 vertices, the
// WidthCache repeat-call path, and the CircuitTreewidthBounds vtree sweep
// that dominated tier-1 test time before this engine existed. The dense
// subset-DP oracle the engine replaced cross-checks it in
// tests/width_search_test.cc.
//
// --json=PATH writes one section (min of 3 reps each):
//   exact_width_bnb — per-workload milliseconds

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "circuit/families.h"
#include "circuit/primal_graph.h"
#include "compile/widths.h"
#include "func/bool_func.h"
#include "graph/exact_treewidth.h"
#include "graph/generators.h"
#include "graph/width_cache.h"
#include "util/random.h"

namespace ctsdd {
namespace {

constexpr int kReps = 3;

// Sparse random instances in the circuit-primal-graph regime (partial
// k-trees keep the treewidth moderate while the search space grows).
Graph Instance(int n, int k, uint64_t seed) {
  Rng rng(seed);
  return RandomPartialKTree(n, k, 0.8, &rng);
}

void Run(const std::string& json_path) {
  bench::Header("Exact width: pruned branch-and-bound");
  std::vector<bench::JsonMetric> bnb;

  std::printf("%-34s %12s\n", "workload", "bnb_ms");
  for (const int n : {16, 18, 20, 22, 24, 26, 28, 30, 32}) {
    // Seeds fix each key's instance, so runs stay comparable per key.
    const Graph g = Instance(n, 5, /*seed=*/n <= 24 ? n : 100 + n);
    int tw = -1;
    const double ms = bench::MinMillis(kReps, [&] {
      WidthCache::Global().Clear();  // time the solver, not the cache
      tw = ExactTreewidth(g).value();
    });
    bnb.push_back({"tw_n" + std::to_string(n) + "_ms", ms});
    std::printf("%-34s %12.3f\n", ("treewidth n=" + std::to_string(n) +
                " (tw=" + std::to_string(tw) + ")").c_str(), ms);
  }
  {
    const Graph g = Instance(20, 4, /*seed=*/7);
    int pw = -1;
    const double ms = bench::MinMillis(kReps, [&] {
      WidthCache::Global().Clear();
      pw = ExactPathwidth(g).value();
    });
    bnb.push_back({"pw_n20_ms", ms});
    std::printf("%-34s %12.3f\n",
                ("pathwidth n=20 (pw=" + std::to_string(pw) + ")").c_str(),
                ms);
  }

  // Cross-call memoization: the same circuit's primal graph re-solved.
  {
    const Circuit circuit = LadderCircuit(6, 2);
    double warm_ms = 0;
    const double cold_ms = bench::MinMillis(kReps, [&] {
      WidthCache::Global().Clear();
      ExactCircuitTreewidth(circuit).value();
      warm_ms = bench::MinMillis(
          10, [&] { ExactCircuitTreewidth(circuit).value(); });
    });
    bnb.push_back({"ladder6_tw_cold_ms", cold_ms});
    bnb.push_back({"ladder6_tw_cached_ms", warm_ms});
    std::printf("%-34s %12.3f\n", "ladder6 tw cold", cold_ms);
    std::printf("%-34s %12.4f\n", "ladder6 tw cached", warm_ms);
  }

  // The workload that used to burn ~330 s of tier-1 time: the full
  // 120-vtree CircuitTreewidthBounds sweep (compile + bounded exact
  // treewidth per vtree).
  {
    Rng rng(5);
    const BoolFunc parity = BoolFunc::FromCircuit(ParityCircuit(4));
    const BoolFunc random4 = BoolFunc::Random({0, 1, 2, 3}, &rng);
    const double parity_ms = bench::MinMillis(kReps, [&] {
      WidthCache::Global().Clear();
      CircuitTreewidthBounds(parity);
    });
    const double random_ms = bench::MinMillis(kReps, [&] {
      WidthCache::Global().Clear();
      CircuitTreewidthBounds(random4);
    });
    bnb.push_back({"ctw_bounds_parity4_ms", parity_ms});
    bnb.push_back({"ctw_bounds_random4_ms", random_ms});
    std::printf("%-34s %12.2f\n", "ctw bounds sweep (parity4)", parity_ms);
    std::printf("%-34s %12.2f\n", "ctw bounds sweep (random4)", random_ms);
  }

  if (!json_path.empty() &&
      bench::WriteJsonSection(json_path, "exact_width_bnb", bnb)) {
    bench::WriteMetaSection(json_path);
    std::printf("  wrote %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace ctsdd

int main(int argc, char** argv) {
  static constexpr char kFlag[] = "--json=";
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      json_path = argv[i] + sizeof(kFlag) - 1;
    }
  }
  ctsdd::Run(json_path);
  return 0;
}
