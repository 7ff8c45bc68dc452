// Speedup curves for the library's one parallel path, the vtree-semantic
// SDD compiler's per-cofactor-class fork: each workload runs sequentially
// (no pool attached), then with a TaskPool of 1/2/4/8 workers attached to
// the manager. The 1-worker configuration spawns no threads and routes
// through the sequential code path, so its time vs `seq` bounds the attach
// overhead; the larger pools exercise the concurrent unique-table/cache
// protocols and the fork-join recursion.
//
// Speedups are real parallelism measurements and therefore bounded by the
// host: the JSON's meta section records host_cores, and on a single-core
// host every multi-worker configuration measures overhead, not scaling.
//
// Workloads (cold compiles, fresh managers per rep, min-of-3):
//   sdd_semantic14     12 random 14-var semantic compiles
//   isa_k2_m4          the Appendix-A ISA compile (k=2, m=4, n=18)
//
// Regenerate the checked-in curve with
//   build/bench_parallel_apply --json=BENCH_parallel_apply.json

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
#include "vtree/vtree.h"

namespace ctsdd {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  return v;
}

constexpr int kWorkerCounts[] = {1, 2, 4, 8};

// Local sink (this binary does not link google-benchmark).
template <typename T>
inline void Consume(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

// Runs `body(pool)` with no pool, then per worker count, and emits one
// JSON section: seq_ms, w{N}_ms, speedup_w4 (= seq_ms / w4_ms).
template <typename Body>
void RunWorkload(const char* name, const std::string& json_path,
                 bool* first_section, const Body& body) {
  std::vector<bench::JsonMetric> metrics;
  const double seq_ms =
      bench::MinMillis(3, [&] { body(static_cast<exec::TaskPool*>(nullptr)); });
  metrics.push_back({"seq_ms", seq_ms});
  std::printf("  %-18s seq %8.2f ms |", name, seq_ms);
  double w4_ms = seq_ms;
  for (const int workers : kWorkerCounts) {
    exec::TaskPool pool(workers);
    const double ms = bench::MinMillis(3, [&] { body(&pool); });
    metrics.push_back({"w" + std::to_string(workers) + "_ms", ms});
    if (workers == 4) w4_ms = ms;
    std::printf(" %dw %8.2f ms", workers, ms);
  }
  const double speedup = w4_ms > 0 ? seq_ms / w4_ms : 0.0;
  metrics.push_back({"speedup_w4", speedup});
  std::printf(" | x%.2f @4w\n", speedup);
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
