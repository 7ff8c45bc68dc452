// Micro benchmarks (google-benchmark) for the knowledge-compilation
// substrate: OBDD/SDD apply throughput, model counting, weighted model
// counting, and the full treewidth pipeline.
//
// Run with --apply_core_json=PATH to instead execute the fixed apply-core
// suite (deterministic apply-heavy workloads) and write its timings as a
// machine-readable JSON section (CI's trace-overhead gate compares two
// builds' sections).

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "benchmark/benchmark.h"
#include "circuit/families.h"
#include "compile/pipeline.h"
#include "func/bool_func.h"
#include "obdd/obdd.h"
#include "obdd/obdd_compile.h"
#include "sdd/sdd.h"
#include "sdd/sdd_compile.h"
#include "util/random.h"
#include "vtree/from_decomposition.h"

namespace ctsdd {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  return v;
}

void BM_ObddCompileParity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Circuit c = ParityCircuit(n);
  for (auto _ : state) {
    ObddManager m(Iota(n));
    benchmark::DoNotOptimize(CompileCircuitToObdd(&m, c));
  }
}
BENCHMARK(BM_ObddCompileParity)->Arg(16)->Arg(64)->Arg(256);

void BM_ObddCompileMajority(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Circuit c = MajorityCircuit(n);
  for (auto _ : state) {
    ObddManager m(Iota(n));
    benchmark::DoNotOptimize(CompileCircuitToObdd(&m, c));
  }
}
BENCHMARK(BM_ObddCompileMajority)->Arg(16)->Arg(32)->Arg(64);

void BM_SddCompileLadder(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const Circuit c = LadderCircuit(rows, 2);
  const auto vtree = VtreeForCircuit(c);
  for (auto _ : state) {
    SddManager m(vtree.value());
    benchmark::DoNotOptimize(CompileCircuitToSdd(&m, c));
  }
}
BENCHMARK(BM_SddCompileLadder)->Arg(8)->Arg(16)->Arg(24);

void BM_SddApplyRandom(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(42);
  const Vtree vt = Vtree::Balanced(Iota(n));
  SddManager m(vt);
  const BoolFunc fa = BoolFunc::Random(Iota(n), &rng);
  const BoolFunc fb = BoolFunc::Random(Iota(n), &rng);
  const auto a = CompileFuncToSdd(&m, fa);
  const auto b = CompileFuncToSdd(&m, fb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.And(a, b));
    benchmark::DoNotOptimize(m.Or(a, b));
  }
}
BENCHMARK(BM_SddApplyRandom)->Arg(8)->Arg(12);

void BM_SddModelCount(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const Circuit c = LadderCircuit(rows, 2);
  const auto vtree = VtreeForCircuit(c);
  SddManager m(vtree.value());
  const auto root = CompileCircuitToSdd(&m, c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.CountModels(root));
  }
}
BENCHMARK(BM_SddModelCount)->Arg(8)->Arg(16)->Arg(24);

void BM_SddWmc(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const Circuit c = LadderCircuit(rows, 2);
  const auto vtree = VtreeForCircuit(c);
  SddManager m(vtree.value());
  const auto root = CompileCircuitToSdd(&m, c);
  std::map<int, double> probs;
  for (int v : c.Vars()) probs[v] = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.WeightedModelCount(root, probs));
  }
}
BENCHMARK(BM_SddWmc)->Arg(8)->Arg(16)->Arg(24);

void BM_TreewidthPipeline(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const Circuit c = LadderCircuit(rows, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompileWithTreewidth(c));
  }
}
BENCHMARK(BM_TreewidthPipeline)->Arg(8)->Arg(16)->Arg(24);

// --- Apply-core suite ------------------------------------------------------
//
// Fixed, deterministic, apply-heavy workloads that exercise exactly the
// layers the high-throughput apply core owns: the OBDD/SDD unique tables
// and computed caches, the n-ary gate folds in the compilers, and the
// word-parallel BoolFunc kernel that CompileFuncToObdd memoizes on.

void PrintSddDiagnostics(const char* label, const SddManager& m) {
  bench::PrintSddDiagnostics(label, m.apply_cache_stats(),
                             m.sem_cache_stats(), m.apply_memo_stats(),
                             m.counters());
}

void RunApplyCoreSuite(const std::string& json_path) {
  std::vector<bench::JsonMetric> metrics;
  auto record = [&](const char* name, double ms) {
    metrics.push_back({name, ms});
    std::printf("  %-28s %10.2f ms\n", name, ms);
  };
  bench::Header("apply-core suite");

  record("obdd_parity512_compile_ms", bench::MinMillis(3, [] {
           const Circuit c = ParityCircuit(512);
           ObddManager m(Iota(512));
           benchmark::DoNotOptimize(CompileCircuitToObdd(&m, c));
         }));
  record("obdd_majority64_compile_ms", bench::MinMillis(3, [] {
           const Circuit c = MajorityCircuit(64);
           ObddManager m(Iota(64));
           benchmark::DoNotOptimize(CompileCircuitToObdd(&m, c));
         }));
  record("obdd_banded_cnf_compile_ms", bench::MinMillis(3, [] {
           const Circuit c = BandedCnfCircuit(1024, 6);
           ObddManager m(Iota(1024));
           benchmark::DoNotOptimize(CompileCircuitToObdd(&m, c));
         }));
  record("obdd_func18_compile_ms", bench::MinMillis(3, [] {
           Rng rng(271828);
           const BoolFunc f = BoolFunc::Random(Iota(18), &rng);
           ObddManager m(Iota(18));
           benchmark::DoNotOptimize(CompileFuncToObdd(&m, f));
         }));
  {
    // Kept alive across reps so the last rep's manager can be inspected.
    std::unique_ptr<SddManager> last;
    record("sdd_apply_pairs12_ms", bench::MinMillis(3, [&] {
             Rng rng(314159);
             const int n = 12, k = 8;
             last = std::make_unique<SddManager>(Vtree::Balanced(Iota(n)));
             SddManager& m = *last;
             std::vector<SddManager::NodeId> roots;
             for (int i = 0; i < k; ++i) {
               roots.push_back(
                   CompileFuncToSdd(&m, BoolFunc::Random(Iota(n), &rng)));
             }
             for (int i = 0; i < k; ++i) {
               for (int j = i + 1; j < k; ++j) {
                 benchmark::DoNotOptimize(m.And(roots[i], roots[j]));
                 benchmark::DoNotOptimize(m.Or(roots[i], roots[j]));
               }
             }
           }));
    PrintSddDiagnostics("pairs12", *last);
  }
  {
    // Vtree-guided semantic compilation on unstructured functions: the
    // partition path end to end (cofactor sweeps, word partitions, the
    // semantic node cache), with no circuit applies in sight.
    std::unique_ptr<SddManager> last;
    record("sdd_semantic_compile_ms", bench::MinMillis(3, [&] {
             Rng rng(8675309);
             const int n = 14;
             last = std::make_unique<SddManager>(Vtree::Balanced(Iota(n)));
             for (int i = 0; i < 12; ++i) {
               benchmark::DoNotOptimize(CompileFuncToSdd(
                   last.get(), BoolFunc::Random(Iota(n), &rng)));
             }
           }));
    PrintSddDiagnostics("semantic_compile", *last);
  }
  {
    std::unique_ptr<SddManager> last;
    record("sdd_ladder20_compile_ms", bench::MinMillis(3, [&] {
             const Circuit c = LadderCircuit(20, 3);
             const auto vtree = VtreeForCircuit(c);
             last = std::make_unique<SddManager>(vtree.value());
             benchmark::DoNotOptimize(CompileCircuitToSdd(last.get(), c));
           }));
    PrintSddDiagnostics("ladder20", *last);
  }

  if (bench::WriteJsonSection(json_path, "kc_micro_apply_core", metrics,
                              /*append=*/false)) {
    bench::WriteMetaSection(json_path);
    std::printf("  wrote %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace ctsdd

int main(int argc, char** argv) {
  // --apply_core_json=PATH runs the fixed suite instead of google-benchmark.
  static constexpr char kFlag[] = "--apply_core_json=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      ctsdd::RunApplyCoreSuite(argv[i] + sizeof(kFlag) - 1);
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
