#include "obs/flight_recorder.h"

#include <cstdio>
#include <utility>

#include "obs/trace.h"

namespace ctsdd::obs {

namespace {

double SinceMs(std::chrono::steady_clock::time_point then,
               std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - then).count();
}

void AppendRecord(std::string* out, const FlightRecord& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"trace_id\": %llu, \"query_sig\": \"%016llx\", "
      "\"db_sig\": \"%016llx\", \"shard\": %d, \"route\": %d, "
      "\"status\": %d, \"cache_hit\": %d, \"degraded\": %d, "
      "\"queue_ms\": %.3f, \"compile_ms\": %.3f, "
      "\"wmc_ms\": %.3f, \"total_ms\": %.3f, "
      "\"bytes_charged\": %lld, \"plan_size\": %d, \"ts_ms\": %.3f}",
      static_cast<unsigned long long>(r.trace_id),
      static_cast<unsigned long long>(r.query_sig),
      static_cast<unsigned long long>(r.db_sig), r.shard, r.route,
      r.status_code, r.cache_hit ? 1 : 0, r.degraded ? 1 : 0,
      r.queue_ms, r.compile_ms, r.wmc_ms,
      r.total_ms, static_cast<long long>(r.bytes_charged), r.plan_size,
      r.ts_ms);
  *out += buf;
}

}  // namespace

const char* AnomalyName(Anomaly anomaly) {
  switch (anomaly) {
    case Anomaly::kQuarantineStrike:
      return "quarantine_strike";
    case Anomaly::kMemoryDenial:
      return "memory_denial";
    case Anomaly::kHangDetected:
      return "hang_detected";
    case Anomaly::kLatencyOutlier:
      return "latency_outlier";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder() : FlightRecorder(Options()) {}

FlightRecorder::FlightRecorder(Options options)
    : options_(std::move(options)),
      start_(std::chrono::steady_clock::now()) {
  ring_.resize(options_.capacity == 0 ? 1 : options_.capacity);
}

void FlightRecorder::Record(const FlightRecord& record) {
  total_records_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    FlightRecord& slot = ring_[written_ % ring_.size()];
    slot = record;
    slot.ts_ms = SinceMs(start_, std::chrono::steady_clock::now());
    ++written_;
  }
  const double bar = outlier_ms_.load(std::memory_order_relaxed);
  if (bar > 0 && record.total_ms > bar) {
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "total_ms %.3f over outlier bar %.3f", record.total_ms,
                  bar);
    NoteAnomaly(Anomaly::kLatencyOutlier, detail);
  }
}

void FlightRecorder::NoteAnomaly(Anomaly anomaly, const std::string& detail) {
  anomalies_.fetch_add(1, std::memory_order_relaxed);
  anomaly_counts_[static_cast<int>(anomaly)].fetch_add(
      1, std::memory_order_relaxed);
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (dumped_once_ &&
      SinceMs(last_dump_, now) < options_.min_dump_interval_ms) {
    return;  // rate-limited: counted above, no fresh dump
  }
  last_dump_ = now;
  dumped_once_ = true;
  std::string reason = AnomalyName(anomaly);
  if (!detail.empty()) reason += ": " + detail;
  DumpLocked(reason);
}

void FlightRecorder::DumpLocked(const std::string& reason) {
  const uint64_t seq = dumps_.fetch_add(1, std::memory_order_relaxed);
  std::string out = "{\"reason\": \"";
  AppendEscaped(&out, reason);
  char head[96];
  std::snprintf(head, sizeof(head), "\", \"ts_ms\": %.3f, \"records\": [\n",
                SinceMs(start_, std::chrono::steady_clock::now()));
  out += head;
  const uint64_t n = written_ < ring_.size()
                         ? written_
                         : static_cast<uint64_t>(ring_.size());
  const uint64_t first = written_ - n;
  for (uint64_t i = 0; i < n; ++i) {
    AppendRecord(&out, ring_[(first + i) % ring_.size()]);
    out += i + 1 < n ? ",\n" : "\n";
  }
  out += "]}\n";
  last_dump_json_ = out;
  if (!options_.dump_dir.empty()) {
    char path[512];
    std::snprintf(path, sizeof(path), "%s/flight_%llu.json",
                  options_.dump_dir.c_str(),
                  static_cast<unsigned long long>(seq));
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
    }
  }
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightRecord> out;
  const uint64_t n = written_ < ring_.size()
                         ? written_
                         : static_cast<uint64_t>(ring_.size());
  const uint64_t first = written_ - n;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    out.push_back(ring_[(first + i) % ring_.size()]);
  }
  return out;
}

std::string FlightRecorder::DumpJson(const std::string& reason) const {
  // Const-friendly variant of DumpLocked without counter/side effects:
  // snapshot then format.
  std::string out = "{\"reason\": \"";
  AppendEscaped(&out, reason);
  char head[96];
  std::snprintf(head, sizeof(head), "\", \"ts_ms\": %.3f, \"records\": [\n",
                SinceMs(start_, std::chrono::steady_clock::now()));
  out += head;
  const std::vector<FlightRecord> records = Snapshot();
  for (size_t i = 0; i < records.size(); ++i) {
    AppendRecord(&out, records[i]);
    out += i + 1 < records.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

std::string FlightRecorder::last_dump_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_dump_json_;
}

}  // namespace ctsdd::obs
