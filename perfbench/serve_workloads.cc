// The three serving workloads: closed-loop clients driving one
// QueryService over the 39-shape population (38 without H0).
//
//   serve_warm   one database, every plan compiled in setup, H0 at 5%,
//                weights drawn from 16 seeded vectors: every request is a
//                plan-cache hit, so time goes to admission, shard hand-off
//                and the WMC pass.
//   serve_cold   a fresh database per request (same tuple ids, new
//                S-edges), H0 excluded, fresh weights: every request pays
//                lineage, width prediction, vtree, compile and plan insert,
//                and eviction plus GC reclaim it.
//   serve_churn  the database is regenerated every 200 requests: hits,
//                compiles, evictions and GC pauses interleave on the same
//                shards.
//
// Requests are numbered by a shared ticket counter and every input of
// ticket i is a function of (seed, i), so the check and the replay
// regenerate exactly what the clients sent. Tickets come in blocks that
// hold every shape once (and H0 once per route) in a seeded order, so the
// mix is exact on every seed and only order, routes, weights and database
// content vary. serve_warm's one database is the same on every seed: its
// H0 diagram sets the tail, and a seeded database would make the tail a
// function of the seed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "db/lineage.h"
#include "graph/width_cache.h"
#include "harness.h"
#include "layers.h"
#include "obs/trace.h"
#include "oracle.h"
#include "serve/query_service.h"
#include "serve_inputs.h"
#include "util/random.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using namespace ctsdd;

constexpr int kDomain = 8;
constexpr int kEdges = 32;  // tuples: 8 R + 32 S + 8 T
constexpr int kClients = 4;
constexpr int kReplayInputs = 2000;
// A traced window stops after this many requests, so that the busiest
// shard's spans fit its trace ring on any host.
constexpr uint64_t kTracedRequests = 30000;
// Setup requests take tickets from here, clear of the window's tickets.
constexpr uint64_t kSetupTickets = uint64_t{1} << 40;
constexpr uint64_t kWarmDbSeed = 1;

struct LoadShape {
  ServeOptions options;
  bool with_h0 = false;          // H0 on 2 of every 40 requests
  int weight_vectors = 0;        // 0 = fresh weights per request
  uint64_t requests_per_db = 0;  // 0 = one database for the whole run
  int warmup_requests = 0;       // serve_warm warms one request per plan
};

LoadShape LoadShapeFor(const std::string& workload) {
  LoadShape s;
  s.options.num_shards = 2;
  s.options.exec_workers = 0;
  if (workload == "serve_warm") {
    s.options.manager_pool_capacity = 64;
    s.with_h0 = true;
    s.weight_vectors = 16;
    return s;
  }
  s.options.plan_cache_capacity = 48;
  s.options.manager_pool_capacity = 32;
  s.options.gc_live_node_ceiling = 1 << 14;
  s.requests_per_db = workload == "serve_cold" ? 1 : 200;
  s.warmup_requests = 1000;
  return s;
}

struct Input {
  int shape = 0;
  PlanRoute route = PlanRoute::kObdd;
  uint64_t db_key = 0;
  uint64_t weights_key = 0;
};

// The deterministic input stream of one run.
class Inputs {
 public:
  Inputs(const LoadShape& shape, uint64_t seed, int num_shapes)
      : shape_(shape), seed_(seed), num_shapes_(num_shapes) {}

  Input At(uint64_t ticket) const {
    // Block slots: [H0/OBDD, H0/SDD,] then one per other shape.
    const int block = num_shapes_ - 1 + (shape_.with_h0 ? 2 : 0);
    const int slot =
        Rng(Mix(seed_, ticket / block)).Permutation(block)[ticket % block];
    Rng rng(Mix(seed_ ^ 0x7c4, ticket));
    Input in;
    if (shape_.with_h0 && slot < 2) {
      in.shape = kH0Shape;
      in.route = slot == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
    } else {
      in.shape = slot - (shape_.with_h0 ? 2 : 0);
      if (in.shape >= kH0Shape) ++in.shape;
      in.route = rng.NextBool(0.5) ? PlanRoute::kObdd : PlanRoute::kSdd;
    }
    in.db_key =
        shape_.requests_per_db == 0 ? 0 : ticket / shape_.requests_per_db;
    in.weights_key = shape_.weight_vectors == 0
                         ? ticket
                         : rng.NextBelow(shape_.weight_vectors);
    return in;
  }

  Database MakeDb(uint64_t db_key) const {
    const uint64_t seed =
        shape_.requests_per_db == 0 ? kWarmDbSeed : seed_ ^ 0xdb;
    return RandomContentDb(kDomain, kEdges, Mix(seed, db_key));
  }

  std::vector<double> Weights(uint64_t weights_key) const {
    Rng rng(Mix(seed_ ^ 0x3e1, weights_key));
    std::vector<double> w(2 * kDomain + kEdges);
    for (double& p : w) p = 0.1 + 0.8 * rng.NextDouble();
    return w;
  }

 private:
  const LoadShape shape_;
  const uint64_t seed_;
  const int num_shapes_;
};

// Databases shared by the clients, by key; keeps the newest few.
class DbSource {
 public:
  explicit DbSource(const Inputs* inputs) : inputs_(inputs) {}

  std::shared_ptr<const Database> Get(uint64_t key) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = dbs_.find(key);
      if (it != dbs_.end()) return it->second;
    }
    auto db = std::make_shared<const Database>(inputs_->MakeDb(key));
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<const Database> out =
        dbs_.emplace(key, std::move(db)).first->second;
    while (dbs_.size() > 8) dbs_.erase(dbs_.begin());
    return out;
  }

 private:
  const Inputs* const inputs_;
  std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const Database>> dbs_;  // guarded by mu_
};

struct Record {
  uint64_t ticket = 0;
  double ms = 0;
  double probability = 0;
  int size = 0;
  bool ok = false;
  bool compiled = false;  // answered by a plan compiled for this request
};

QueryRequest MakeRequest(const Input& in, const std::vector<Ucq>& population,
                         const Database* db, const Inputs& inputs) {
  QueryRequest request;
  request.query = population[static_cast<size_t>(in.shape)];
  request.db = db;
  request.route = in.route;
  request.strategy = VtreeStrategy::kBalanced;
  request.weights = inputs.Weights(in.weights_key);
  return request;
}

// Builds the service and warms it. Returns the mean compiled size of
// serve_warm's plans (0 for the other workloads).
double Setup(const LoadShape& shape, const Inputs& inputs,
             const std::vector<Ucq>& population, DbSource* dbs,
             std::unique_ptr<QueryService>* service) {
  *service = std::make_unique<QueryService>(shape.options);
  std::vector<QueryRequest> batch;
  std::vector<std::shared_ptr<const Database>> held;
  if (shape.warmup_requests == 0) {
    held.push_back(dbs->Get(0));
    for (int s = 0; s < static_cast<int>(population.size()); ++s) {
      for (const PlanRoute route : {PlanRoute::kObdd, PlanRoute::kSdd}) {
        batch.push_back(
            MakeRequest({s, route, 0, 0}, population, held[0].get(), inputs));
      }
    }
  } else {
    for (int i = 0; i < shape.warmup_requests; ++i) {
      const Input in = inputs.At(kSetupTickets + static_cast<uint64_t>(i));
      held.push_back(dbs->Get(in.db_key));
      batch.push_back(MakeRequest(in, population, held.back().get(), inputs));
    }
  }
  double nodes = 0;
  for (const QueryResponse& r : (*service)->ExecuteBatch(batch)) {
    if (!r.status.ok()) {
      std::fprintf(stderr, "setup request failed: %s\n",
                   r.status.ToString().c_str());
      std::exit(2);
    }
    nodes += r.size;
  }
  return shape.warmup_requests == 0 ? nodes / static_cast<double>(batch.size())
                                    : 0.0;
}

// Closed loop: each client sends its next request when the previous one
// is answered, until the deadline or `max_requests` tickets.
std::vector<Record> RunWindow(QueryService* service, const Inputs& inputs,
                              const std::vector<Ucq>& population,
                              DbSource* dbs, double seconds,
                              uint64_t max_requests, double* elapsed_s) {
  std::atomic<uint64_t> next_ticket{0};
  std::vector<std::vector<Record>> per_client(kClients);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      obs::SetCurrentThreadName("client-" + std::to_string(c));
      std::vector<Record>& out = per_client[static_cast<size_t>(c)];
      while (std::chrono::steady_clock::now() < deadline) {
        Record rec;
        rec.ticket = next_ticket.fetch_add(1);
        if (rec.ticket >= max_requests) break;
        const Input in = inputs.At(rec.ticket);
        const std::shared_ptr<const Database> db = dbs->Get(in.db_key);
        const QueryRequest request =
            MakeRequest(in, population, db.get(), inputs);
        const auto t0 = std::chrono::steady_clock::now();
        QueryResponse response;
        {
          obs::TraceSpan span("bench", "client.request");
          response = service->Execute(request);
        }
        rec.ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
        rec.ok = response.status.ok();
        rec.probability = response.probability;
        rec.size = response.size;
        rec.compiled = !response.plan_cache_hit;
        out.push_back(rec);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  *elapsed_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  std::vector<Record> all;
  for (const auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  return all;
}

// Compares every answered request against its reference; returns the
// number of wrong answers. One reference per (database, shape).
uint64_t CheckAnswers(const std::vector<Record>& records, const Inputs& inputs,
                      const std::vector<Ucq>& population) {
  std::vector<std::pair<Input, const Record*>> answered;
  for (const Record& r : records) {
    if (r.ok) answered.emplace_back(inputs.At(r.ticket), &r);
  }
  std::sort(answered.begin(), answered.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.db_key, a.first.shape) <
           std::tie(b.first.db_key, b.first.shape);
  });
  uint64_t wrong = 0;
  std::unique_ptr<Database> db;
  std::unique_ptr<Reference> ref;
  std::map<uint64_t, double> by_weights;  // reference answers per vector
  for (size_t i = 0; i < answered.size(); ++i) {
    const Input& in = answered[i].first;
    const bool new_db = i == 0 || in.db_key != answered[i - 1].first.db_key;
    if (new_db) db = std::make_unique<Database>(inputs.MakeDb(in.db_key));
    if (new_db || in.shape != answered[i - 1].first.shape) {
      auto lineage =
          BuildLineage(population[static_cast<size_t>(in.shape)], *db);
      if (!lineage.ok()) {
        std::fprintf(stderr, "reference lineage failed: %s\n",
                     lineage.status().ToString().c_str());
        std::exit(2);
      }
      ref = std::make_unique<Reference>(lineage.value());
      by_weights.clear();
    }
    auto it = by_weights.find(in.weights_key);
    if (it == by_weights.end()) {
      it = by_weights
               .emplace(in.weights_key,
                        ref->Probability(inputs.Weights(in.weights_key)))
               .first;
    }
    if (std::abs(answered[i].second->probability - it->second) >
        kAnswerTolerance) {
      ++wrong;
    }
  }
  return wrong;
}

// Times the layer functions on a seeded sample of the window's distinct
// (database, shape, route) inputs, each on fresh unpooled managers.
void ReplayLayers(const std::vector<Record>& records, const Inputs& inputs,
                  const std::vector<Ucq>& population, uint64_t seed,
                  LayerTally* tally) {
  std::map<std::tuple<uint64_t, int, int>, uint64_t> distinct;  // -> ticket
  for (const Record& r : records) {
    const Input in = inputs.At(r.ticket);
    distinct.emplace(std::make_tuple(in.db_key, in.shape,
                                     static_cast<int>(in.route)),
                     r.ticket);
  }
  std::vector<uint64_t> tickets;
  for (const auto& [key, ticket] : distinct) tickets.push_back(ticket);
  Rng rng(Mix(seed, 0x7e91a4));
  for (size_t i = tickets.size(); i > 1; --i) {
    std::swap(tickets[i - 1], tickets[rng.NextBelow(i)]);
  }
  if (tickets.size() > static_cast<size_t>(kReplayInputs)) {
    tickets.resize(kReplayInputs);
  }
  for (const uint64_t ticket : tickets) {
    const Input in = inputs.At(ticket);
    const Database db = inputs.MakeDb(in.db_key);
    auto lineage = Lineage(population[static_cast<size_t>(in.shape)], db);
    if (!lineage.ok()) continue;
    const Circuit& circuit = lineage.value();
    tally->AddLineage(circuit);
    if (circuit.Vars().empty()) continue;  // constant: nothing to compile
    PredictWidth(circuit);
    (void)Decompose(circuit);
    const std::vector<double> weights = inputs.Weights(in.weights_key);
    if (in.route == PlanRoute::kObdd) {
      ObddManager manager(circuit.Vars());
      const auto root = CompileObdd(&manager, circuit);
      tally->AddObdd(manager.Size(root));
      (void)ObddWmc(manager, root, weights);
    } else {
      auto vtree = BalancedVtree(circuit);
      if (!vtree.ok()) continue;
      SddManager manager(std::move(vtree).value());
      const auto root = CompileSdd(&manager, circuit);
      tally->AddSdd(manager, manager.Size(root));
      (void)SddWmc(manager, root, weights);
    }
  }
}

}  // namespace

RunResult RunServeWorkload(const RunOptions& options) {
  const LoadShape shape = LoadShapeFor(options.workload);
  const std::vector<Ucq> population = QueryPopulation(kDomain);
  const Inputs inputs(shape, options.seed,
                      static_cast<int>(population.size()));
  DbSource dbs(&inputs);

  std::vector<double> setup_s;
  std::unique_ptr<QueryService> service;
  double warm_plan_nodes = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    if (rep + 1 == kSetupReps) ResetPeakRss();
    Timer timer;
    warm_plan_nodes = Setup(shape, inputs, population, &dbs, &service);
    setup_s.push_back(timer.ElapsedSeconds());
  }

  const bool traced = !options.trace_dir.empty();
  const ServiceStats before = service->stats();
  const WidthCache::Stats widths_before = WidthCache::Global().stats();
  if (traced) BeginTrace();
  double window_s = 0;
  std::vector<Record> records = RunWindow(
      service.get(), inputs, population, &dbs, options.seconds,
      traced ? kTracedRequests : UINT64_MAX, &window_s);
  const double rss_mb = PeakRssMb();
  const ServiceStats after = service->stats();
  const WidthCache::Stats widths_after = WidthCache::Global().stats();

  RunResult result;
  std::vector<Sample> samples;
  double compiled_nodes = 0;
  uint64_t compiled = 0;
  for (const Record& r : records) {
    ++result.attempted;
    if (!r.ok) {
      ++result.failed;
      continue;
    }
    const Input in = inputs.At(r.ticket);
    samples.push_back({2 * in.shape + static_cast<int>(in.route), r.ms});
    if (r.compiled) {
      compiled_nodes += r.size;
      ++compiled;
    }
  }
  result.metrics.emplace_back("setup_s", Quantile(setup_s, 0.5));
  result.metrics.emplace_back("ops_per_s",
                              static_cast<double>(samples.size()) / window_s);
  AddLatencyMetrics(samples, &result.metrics);
  result.metrics.emplace_back(
      "output_nodes", shape.warmup_requests == 0
                          ? warm_plan_nodes
                          : compiled_nodes / std::max<double>(1, compiled));
  result.metrics.emplace_back("peak_rss_mb", rss_mb);

  if (traced) {
    LayerTally tally;
    ReplayLayers(records, inputs, population, options.seed, &tally);
    uint64_t dropped = 0;
    if (!EndTrace(options.trace_dir, &dropped)) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   options.trace_dir.c_str());
      std::exit(2);
    }
    const auto delta = [](uint64_t a, uint64_t b) {
      return static_cast<double>(b - a);
    };
    const ShardStats& t0 = before.totals;
    const ShardStats& t1 = after.totals;
    const double lookups =
        delta(t0.plan_hits + t0.plan_misses, t1.plan_hits + t1.plan_misses);
    NamedValues& c = result.counters;
    c.emplace_back("plan_cache.hit_ratio",
                   lookups == 0 ? 0.0
                                : delta(t0.plan_hits, t1.plan_hits) / lookups);
    c.emplace_back("plan_cache.evictions",
                   delta(t0.plan_evictions, t1.plan_evictions));
    c.emplace_back("plan_cache.manager_evictions",
                   delta(t0.manager_evictions, t1.manager_evictions));
    c.emplace_back("serve.compiles", delta(t0.compiles, t1.compiles));
    c.emplace_back("serve.peak_live_nodes", t1.peak_live_nodes);
    c.emplace_back("gc.runs", delta(t0.gc_runs, t1.gc_runs));
    c.emplace_back("gc.reclaimed_nodes",
                   delta(t0.gc_reclaimed, t1.gc_reclaimed));
    const double width_lookups =
        delta(widths_before.lookups, widths_after.lookups);
    c.emplace_back("graph.width_cache.hit_ratio",
                   width_lookups == 0
                       ? 0.0
                       : delta(widths_before.hits, widths_after.hits) /
                             width_lookups);
    for (const char* name :
         {"exec.tasks_run", "exec.steals", "exec.parks", "exec.steal_ratio"}) {
      c.emplace_back(name, 0.0);  // serving runs with exec_workers = 0
    }
    tally.AppendCounters(&c);
    c.emplace_back("trace.dropped_events", static_cast<double>(dropped));
  }

  if (options.self_test && !records.empty()) {
    for (Record& r : records) {
      if (r.ok) {
        r.probability += 1e-6;
        break;
      }
    }
  }
  result.wrong_answers = CheckAnswers(records, inputs, population);
  return result;
}

}  // namespace perfbench
