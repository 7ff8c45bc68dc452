// Shared helpers for the benchmark harnesses: section headers, a fitted
// power-law exponent, min-of-reps timing and the flat JSON records the
// benches write.

#ifndef CTSDD_BENCH_BENCH_UTIL_H_
#define CTSDD_BENCH_BENCH_UTIL_H_

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sdd/sdd.h"

namespace ctsdd {
namespace bench {

// Cache hit rates and work counters of an SDD manager, printed after SDD
// workloads so perf regressions in the tracked artifacts come with a
// diagnosis (did a cache hit rate drop? did element products explode?).
// Shared by bench_kc_micro and bench_isa_sdd.
inline void PrintSddDiagnostics(const char* label,
                                const SddManager::CacheStats& apply_cache,
                                const SddManager::CacheStats& sem_cache,
                                const SddManager::CacheStats& apply_memo,
                                const SddManager::PerfCounters& c) {
  auto rate = [](const SddManager::CacheStats& s) {
    return s.lookups == 0 ? 0.0
                          : 100.0 * static_cast<double>(s.hits) /
                                static_cast<double>(s.lookups);
  };
  std::printf(
      "    [%s] apply_cache %.1f%% of %llu, sem_cache %.1f%% of %llu, "
      "apply_memo %.1f%% of %llu\n",
      label, rate(apply_cache),
      static_cast<unsigned long long>(apply_cache.lookups), rate(sem_cache),
      static_cast<unsigned long long>(sem_cache.lookups), rate(apply_memo),
      static_cast<unsigned long long>(apply_memo.lookups));
  std::printf(
      "    [%s] applies %llu, products %llu, sem_hits %llu, absorb %llu, "
      "merges %llu, partitions %llu (memo_hits %llu)\n",
      label, static_cast<unsigned long long>(c.apply_calls),
      static_cast<unsigned long long>(c.element_products),
      static_cast<unsigned long long>(c.sem_apply_hits),
      static_cast<unsigned long long>(c.absorb_collapses),
      static_cast<unsigned long long>(c.compression_merges),
      static_cast<unsigned long long>(c.semantic_partitions),
      static_cast<unsigned long long>(c.semantic_memo_hits));
}

// Line-buffer stdout even when piped, so partially completed sweeps
// survive timeouts and show up in tee'd logs as they happen.
inline void EnsureLineBuffered() {
  static const bool done = [] {
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    return true;
  }();
  (void)done;
}

inline void Header(const std::string& title) {
  EnsureLineBuffered();
  std::printf("\n=== %s ===\n", title.c_str());
}

// Least-squares slope of log(y) against log(x): the fitted exponent of a
// power law y ~ x^slope. Ignores non-positive entries.
inline double LogLogSlope(const std::vector<double>& x,
                          const std::vector<double>& y) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (size_t i = 0; i < x.size() && i < y.size(); ++i) {
    if (x[i] <= 0 || y[i] <= 0) continue;
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++n;
  }
  if (n < 2) return 0.0;
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

// --- Machine-readable benchmark records -----------------------------------
//
// Benches that feed the perf trajectory emit flat JSON files of the shape
//   { "section": { "metric": value, ... }, ... }
// via WriteJsonSection below. Appending re-reads the file (it must be in
// the flat format written here — point benches at a scratch path),
// replaces any existing section of the same name, and splices the new
// section before the closing brace, so several bench binaries can
// contribute sections to one file and reruns stay idempotent.

struct JsonMetric {
  std::string key;
  double value;
};

// True iff `s` is in the flat two-level shape WriteJsonSection produces:
// braces nest at most two deep and every depth-1 value is an object. A
// file of any other shape (nested sections, string values) fails this
// check, which protects it from being clobbered.
inline bool IsFlatSectionFormat(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (++depth > 2) return false;
    } else if (c == '}') {
      --depth;
    } else if (c == ':' && depth == 1) {
      size_t j = i + 1;
      while (j < s.size() &&
             std::isspace(static_cast<unsigned char>(s[j]))) {
        ++j;
      }
      if (j >= s.size() || s[j] != '{') return false;
    }
  }
  return true;
}

// Returns false (leaving the file untouched) when the path cannot be
// written or holds content this writer did not produce.
inline bool WriteJsonSection(const std::string& path,
                             const std::string& section,
                             const std::vector<JsonMetric>& metrics,
                             bool append = false) {
  std::string existing;
  if (append) {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      existing = buf.str();
      if (!existing.empty() && !IsFlatSectionFormat(existing)) {
        std::fprintf(stderr,
                     "WriteJsonSection: refusing to append to %s: not in "
                     "the flat bench-section format (use a scratch path)\n",
                     path.c_str());
        return false;
      }
      // Trim trailing whitespace and the closing brace.
      while (!existing.empty() &&
             (std::isspace(static_cast<unsigned char>(existing.back())) ||
              existing.back() == '}')) {
        const bool was_brace = existing.back() == '}';
        existing.pop_back();
        if (was_brace) break;
      }
      // Drop a previous section with the same name (sections are flat, so
      // its first '}' closes it) to keep keys unique across reruns.
      const std::string marker = "\"" + section + "\": {";
      const size_t pos = existing.find(marker);
      if (pos != std::string::npos) {
        size_t end = existing.find('}', pos);
        if (end != std::string::npos) {
          ++end;
          while (end < existing.size() &&
                 (std::isspace(static_cast<unsigned char>(existing[end])) ||
                  existing[end] == ',')) {
            ++end;
          }
          size_t start = existing.rfind('\n', pos);
          if (start == std::string::npos) start = pos;
          existing.erase(start, end - start);
        }
      }
      // Normalize the tail so exactly one separator is emitted below.
      while (!existing.empty() &&
             (std::isspace(static_cast<unsigned char>(existing.back())) ||
              existing.back() == ',')) {
        existing.pop_back();
      }
      if (existing == "{") existing.clear();
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "WriteJsonSection: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  if (existing.empty()) {
    out << "{\n";
  } else {
    out << existing << ",\n";
  }
  out << "  \"" << section << "\": {\n";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.6g", metrics[i].value);
    out << "    \"" << metrics[i].key << "\": " << num
        << (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  out << "  }\n}\n";
  return true;
}

// Version of the flat-section schema above. Bump on any change to the
// section shape or metric semantics so trajectory consumers can gate.
// Version 3: bench_parallel_apply reports medians of interleaved rounds.
inline constexpr double kBenchSchemaVersion = 3;

// Writes (or refreshes) the shared "meta" section every emitter stamps
// into its BENCH_*.json: schema version plus the host topology the
// numbers were measured on — without it, a perf delta between two
// artifact snapshots cannot be told apart from a host change. `extras`
// carries emitter-specific context (e.g. the governed memory ceiling).
inline bool WriteMetaSection(const std::string& path,
                             std::vector<JsonMetric> extras = {},
                             bool append = true) {
  std::vector<JsonMetric> metrics;
  metrics.push_back({"schema_version", kBenchSchemaVersion});
  metrics.push_back(
      {"host_cores",
       static_cast<double>(std::thread::hardware_concurrency())});
  for (JsonMetric& m : extras) metrics.push_back(std::move(m));
  return WriteJsonSection(path, "meta", metrics, append);
}

// Runs `body` `reps` times and returns the fastest wall-clock milliseconds —
// the standard min-of-reps estimator for microbenchmarks (robust to one-off
// scheduler noise without needing long runs).
template <typename Body>
double MinMillis(int reps, Body&& body) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace bench
}  // namespace ctsdd

#endif  // CTSDD_BENCH_BENCH_UTIL_H_
