// Speedup curves for the library's one parallel path, the vtree-semantic
// SDD compiler's per-cofactor-class fork: each workload runs sequentially
// (no pool attached), then with a TaskPool of 1/2/4/8 workers attached to
// the manager. The 1-worker configuration spawns no threads and routes
// through the sequential code path, so its time vs `seq` bounds the attach
// overhead; the larger pools exercise ParallelFor's nested batches (the
// workers plan partitions, the owning thread builds every node).
//
// Speedups are real parallelism measurements and therefore bounded by the
// host: the JSON's meta section records host_cores, and on a single-core
// host every multi-worker configuration measures overhead, not scaling.
//
// Each workload runs kRounds interleaved rounds of (seq, w1, w2, w4, w8),
// one cold compile per configuration per round in a fresh manager, so
// host drift hits every configuration alike. The JSON reports each
// configuration's median time and the median of the per-round
// speedup_w4 (seq / w4 within one round).
//
// Workloads:
//   sdd_semantic14     12 random 14-var semantic compiles
//   isa_k2_m4          the Appendix-A ISA compile (k=2, m=4, n=18)
//
// Regenerate the checked-in curve with
//   build/bench_parallel_apply --json=BENCH_parallel_apply.json

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "compile/isa.h"
#include "circuit/families.h"
#include "exec/task_pool.h"
#include "func/bool_func.h"
#include "sdd/sdd.h"
#include "sdd/sdd_compile.h"
#include "util/random.h"
#include "util/timer.h"
#include "vtree/vtree.h"

namespace ctsdd {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  return v;
}

constexpr int kWorkerCounts[] = {1, 2, 4, 8};
constexpr int kRounds = 9;

// Local sink (this binary does not link google-benchmark).
template <typename T>
inline void Consume(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

// Runs kRounds rounds of `body(pool)` with no pool, then per worker
// count, and emits one JSON section: seq_ms, w{N}_ms (medians),
// speedup_w4 (median of per-round seq / w4).
template <typename Body>
void RunWorkload(const char* name, const std::string& json_path,
                 bool* first_section, const Body& body) {
  // times[0] is sequential; times[i + 1] uses kWorkerCounts[i] workers.
  std::vector<std::vector<double>> times(std::size(kWorkerCounts) + 1);
  std::vector<double> speedups;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t c = 0; c < times.size(); ++c) {
      const auto pool =
          c == 0 ? nullptr
                 : std::make_unique<exec::TaskPool>(kWorkerCounts[c - 1]);
      const Timer timer;
      body(pool.get());
      times[c].push_back(timer.ElapsedMillis());
    }
    static_assert(kWorkerCounts[2] == 4);
    speedups.push_back(times[0].back() / times[3].back());
  }
  std::vector<bench::JsonMetric> metrics;
  metrics.push_back({"seq_ms", Median(times[0])});
  std::printf("  %-18s seq %8.2f ms |", name, Median(times[0]));
  for (size_t i = 0; i < std::size(kWorkerCounts); ++i) {
    const double ms = Median(times[i + 1]);
    metrics.push_back({"w" + std::to_string(kWorkerCounts[i]) + "_ms", ms});
    std::printf(" %dw %8.2f ms", kWorkerCounts[i], ms);
  }
  const double speedup = Median(speedups);
  metrics.push_back({"speedup_w4", speedup});
  std::printf(" | x%.2f @4w (median of %d rounds)\n", speedup, kRounds);
  if (!json_path.empty()) {
    bench::WriteJsonSection(json_path, name, metrics,
                            /*append=*/!*first_section);
    *first_section = false;
  }
}

void Run(const std::string& json_path) {
  bench::Header("parallel apply/compile: speedup vs workers (exec/)");
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("  host: %u hardware thread(s)%s\n", host_cpus,
              host_cpus <= 1 ? "  [single-core host: multi-worker curves "
                               "measure overhead, not scaling]"
                             : "");
  bool first_section = true;

  RunWorkload("sdd_semantic14", json_path, &first_section,
              [&](exec::TaskPool* pool) {
                Rng rng(8675309);
                const int n = 14;
                SddManager m(Vtree::Balanced(Iota(n)));
                m.AttachExecutor(pool);
                for (int i = 0; i < 12; ++i) {
                  Consume(
                      CompileFuncToSdd(&m, BoolFunc::Random(Iota(n), &rng)));
                }
              });

  {
    const IsaParams params{2, 4};
    const Circuit circuit = IsaCircuit(params);
    const Vtree vtree = IsaVtree(params);
    RunWorkload("isa_k2_m4", json_path, &first_section,
                [&](exec::TaskPool* pool) {
                  SddManager m(vtree);
                  m.AttachExecutor(pool);
                  Consume(CompileCircuitToSdd(&m, circuit));
                });
  }

  if (!json_path.empty()) {
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
