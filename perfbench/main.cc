// The benchmark binary: runs one workload in this process and prints one
// JSON object on its last stdout line. perfbench/run.py builds and runs
// it; see perfbench/README.md.
//
//   perfbench --workload=NAME --seed=N --seconds=S
//                    [--trace_dir=DIR] [--self_test]

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "harness.h"
#include "obs/trace.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

void AddLatencyMetrics(const std::vector<Sample>& samples,
                       NamedValues* metrics) {
  std::vector<double> all;
  std::map<int, std::vector<double>> by_entry;
  for (const Sample& s : samples) {
    all.push_back(s.ms);
    by_entry[s.entry].push_back(s.ms);
  }
  double log_sum = 0;
  for (const auto& [entry, ms] : by_entry) {
    log_sum += std::log(std::max(Quantile(ms, 0.5), 1e-9));
  }
  metrics->emplace_back("latency_p50_ms", Quantile(all, 0.5));
  metrics->emplace_back("latency_p99_ms", Quantile(all, 0.99));
  metrics->emplace_back(
      "entry_geomean_ms",
      by_entry.empty()
          ? 0.0
          : std::exp(log_sum / static_cast<double>(by_entry.size())));
}

void ResetPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);  // 5: reset the peak RSS to the current RSS
    std::fclose(f);
  }
}

double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return kib / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void BeginTrace() {
  ctsdd::obs::Tracer::Clear();
  ctsdd::obs::Tracer::Arm(/*events_per_thread=*/size_t{1} << 18);
}

bool EndTrace(const std::string& dir, uint64_t* dropped_events) {
  ctsdd::obs::Tracer::Disarm();
  *dropped_events = ctsdd::obs::Tracer::Dropped();
  const bool written =
      ctsdd::obs::Tracer::WriteChromeTrace(dir + "/trace.json");
  ctsdd::obs::Tracer::Clear();
  return written;
}

namespace {

void AppendObject(const NamedValues& values, std::string* out) {
  *out += "{";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", i == 0 ? "" : ", ",
                  values[i].first.c_str(), values[i].second);
    *out += buf;
  }
  *out += "}";
}

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (Flag(argv[i], "--workload", &value)) {
      options.workload = value;
    } else if (Flag(argv[i], "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &value)) {
      options.seconds = std::atof(value.c_str());
    } else if (Flag(argv[i], "--trace_dir", &value)) {
      options.trace_dir = value;
    } else if (std::strcmp(argv[i], "--self_test") == 0) {
      options.self_test = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (!(options.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  RunResult result;
  if (options.workload == "kc_compile") {
    result = RunKcCompile(options);
  } else if (options.workload == "serve_warm" ||
             options.workload == "serve_cold" ||
             options.workload == "serve_churn") {
    result = RunServeWorkload(options);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }

#ifdef CTSDD_NO_TRACE
  const char* trace_build = "false";
#else
  const char* trace_build = "true";
#endif
  std::string out = "{\"workload\": \"" + options.workload + "\"";
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"wrong_answers\": " + std::to_string(result.wrong_answers);
  out += ", \"metrics\": ";
  AppendObject(result.metrics, &out);
  out += ", \"counters\": ";
  AppendObject(result.counters, &out);
  out += ", \"build\": {\"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"ctsdd_trace\": " + std::string(trace_build);
  out += ", \"compiler\": \"" __VERSION__ "\"}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
