// Shared plumbing of the benchmark binary: run options, the result a
// workload hands back, and the statistics every workload reports with.
//
// A workload runs in three phases. Setup builds the system under test and
// warms it (timed several times; the median is `setup_s`). The window
// drives load for `seconds` and records every answer. The check then
// compares each recorded answer against a reference that does not go
// through the code path being measured. Traced runs add a replay phase
// that times the layer functions one by one (see layers.h).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  // Directory for the Chrome trace of a traced run; empty = untraced.
  std::string trace_dir;
  // Perturbs one recorded answer before the check, which must then fail.
  bool self_test = false;
};

using NamedValues = std::vector<std::pair<std::string, double>>;

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong_answers = 0;
  NamedValues metrics;   // end-to-end metrics, by BENCHMARK.json name
  NamedValues counters;  // layer counters, filled by traced runs only
};

// Setup repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

// One timed operation of the window: a served request or a compile.
struct Sample {
  int entry = 0;     // distinct input class: (shape, route) or suite entry
  double ms = 0.0;   // client-observed latency
};

// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);

// Fills latency_p50_ms, latency_p99_ms and entry_geomean_ms (the geometric
// mean over entries of each entry's median latency) from the samples.
void AddLatencyMetrics(const std::vector<Sample>& samples,
                       NamedValues* metrics);

// Hands memory freed by discarded setup repetitions back to the OS and
// restarts the process's peak-RSS count, so that PeakRssMb covers only
// what follows: the final setup and the window.
void ResetPeakRss();
// Peak resident set size since the last ResetPeakRss, in MB.
double PeakRssMb();

// Deterministic 64-bit mix of two keys (SplitMix64 finalizer), for
// deriving per-request input seeds from the run seed.
uint64_t Mix(uint64_t a, uint64_t b);

// Tracer control for traced runs: Begin clears and arms with rings large
// enough that a run drops nothing; End disarms and writes
// <dir>/trace.json. Returns false when the file cannot be written.
void BeginTrace();
bool EndTrace(const std::string& dir, uint64_t* dropped_events);

// The workloads. Each runs setup, window and check in this process and
// exits nonzero itself if setup fails.
RunResult RunServeWorkload(const RunOptions& options);  // serve_*
RunResult RunKcCompile(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
