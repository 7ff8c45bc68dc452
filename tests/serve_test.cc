// Tests for the serve/ subsystem: QueryService answers correct
// probabilities with plan caching, sharding, and plan eviction under
// pressure.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/eval.h"
#include "db/lineage.h"
#include "db/query.h"
#include "db/query_compile.h"
#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obdd/obdd.h"
#include "obdd/obdd_compile.h"
#include "perfbench/serve_inputs.h"
#include "sdd/sdd.h"
#include "sdd/sdd_compile.h"
#include "serve/plan_cache.h"
#include "serve/quarantine.h"
#include "serve/query_service.h"
#include "serve/shard.h"
#include "serve/signature.h"
#include "util/budget.h"
#include "util/fault_injection.h"
#include "util/mem_governor.h"

namespace ctsdd {
namespace {

// Accounted bytes the shards hold outside their plan caches: node stores,
// arenas, unique tables, caches and memos. A compile's manager is
// destroyed before its request is answered, so these are 0 whenever no
// compile is in flight.
uint64_t ManagerBytes(const ServiceStats& stats) {
  uint64_t bytes = 0;
  for (int layer = 0; layer < kMemLayerCount; ++layer) {
    if (layer != static_cast<int>(MemLayer::kPlanCache)) {
      bytes += stats.totals.mem_bytes_by_layer[layer];
    }
  }
  return bytes;
}

// --- Signatures -----------------------------------------------------------

TEST(SignatureTest, QueryAndDatabaseSignaturesDiscriminate) {
  const Ucq q1 = HierarchicalRSQuery();
  const Ucq q2 = NonHierarchicalH0Query();
  EXPECT_NE(QuerySignature(q1), QuerySignature(q2));
  EXPECT_EQ(QuerySignature(q1), QuerySignature(HierarchicalRSQuery()));

  const Database d1 = BipartiteRstDatabase(3, 0.5);
  const Database d2 = BipartiteRstDatabase(4, 0.5);
  EXPECT_NE(DatabaseSignature(d1), DatabaseSignature(d2));
  // Probabilities are weights, not structure: they must not change the
  // signature (plans are shared across weight settings).
  const Database d3 = BipartiteRstDatabase(3, 0.9);
  EXPECT_EQ(DatabaseSignature(d1), DatabaseSignature(d3));
}

// --- QueryService ---------------------------------------------------------

TEST(QueryServiceTest, MatchesBruteForceAcrossRoutesAndStrategies) {
  const Database db = BipartiteRstDatabase(3, 0.4);
  const std::vector<Ucq> queries = {HierarchicalRSQuery(),
                                    NonHierarchicalH0Query(),
                                    InequalityExampleQuery()};
  ServeOptions options;
  options.num_shards = 2;
  QueryService service(options);
  for (const Ucq& query : queries) {
    const double expected = BruteForceQueryProbability(query, db).value();
    for (const PlanRoute route : {PlanRoute::kObdd, PlanRoute::kSdd}) {
      QueryRequest request;
      request.query = query;
      request.db = &db;
      request.route = route;
        const QueryResponse response = service.Execute(request);
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_NEAR(response.probability, expected, 1e-9);
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.requests, 2 * queries.size());
  EXPECT_EQ(stats.totals.failures, 0u);
}

TEST(QueryServiceTest, RepeatsHitThePlanCacheAndWeightsVaryFreely) {
  const Database db = BipartiteRstDatabase(3, 0.5);
  const Ucq query = HierarchicalRSQuery();
  QueryService service;

  QueryRequest request;
  request.query = query;
  request.db = &db;
  request.route = PlanRoute::kSdd;
  const QueryResponse cold = service.Execute(request);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.plan_cache_hit);

  // Same plan, different weights: a cache hit with a different answer.
  request.weights.assign(db.num_tuples(), 0.9);
  const QueryResponse warm = service.Execute(request);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_NE(warm.probability, cold.probability);

  // Cross-check the weighted answer against brute force on a database
  // carrying those probabilities natively.
  const Database reweighted = BipartiteRstDatabase(3, 0.9);
  EXPECT_NEAR(warm.probability,
              BruteForceQueryProbability(query, reweighted).value(), 1e-9);

  // A vector shorter than the tuple count is the documented contract:
  // ids beyond it fall back to the database's probabilities, so it
  // answers exactly like the full vector padded with db.TupleProb.
  QueryRequest short_request = request;
  short_request.weights.clear();
  for (int id = 0; id < db.num_tuples() / 2; ++id) {
    short_request.weights.push_back(0.1 + 0.05 * id);
  }
  QueryRequest padded_request = short_request;
  for (int id = db.num_tuples() / 2; id < db.num_tuples(); ++id) {
    padded_request.weights.push_back(db.TupleProb(id));
  }
  const QueryResponse short_weights = service.Execute(short_request);
  const QueryResponse padded = service.Execute(padded_request);
  ASSERT_TRUE(short_weights.status.ok());
  ASSERT_TRUE(padded.status.ok());
  EXPECT_TRUE(short_weights.plan_cache_hit);
  EXPECT_TRUE(padded.plan_cache_hit);
  EXPECT_DOUBLE_EQ(short_weights.probability, padded.probability);
  EXPECT_NE(short_weights.probability, cold.probability);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.plan_hits, 3u);
  EXPECT_EQ(stats.totals.compiles, 1u);
}

TEST(QueryServiceTest, BatchFansOutAndAlignsResponses) {
  const Database db = BipartiteRstDatabase(3, 0.5);
  const std::vector<Ucq> queries = {HierarchicalRSQuery(),
                                    NonHierarchicalH0Query(),
                                    InequalityExampleQuery()};
  ServeOptions options;
  options.num_shards = 3;
  QueryService service(options);

  std::vector<QueryRequest> batch;
  for (int rep = 0; rep < 4; ++rep) {
    for (const Ucq& query : queries) {
      QueryRequest request;
      request.query = query;
      request.db = &db;
      request.route = rep % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
      batch.push_back(std::move(request));
    }
  }
  const std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
    const double expected =
        BruteForceQueryProbability(batch[i].query, db).value();
    EXPECT_NEAR(responses[i].probability, expected, 1e-9)
        << "batch index " << i;
  }
  // Each (query, route) pair compiled once; the second repetition of
  // each route hit the cache.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.requests, batch.size());
  EXPECT_EQ(stats.totals.compiles, 6u);
  EXPECT_EQ(stats.totals.plan_hits, batch.size() - 6);
}

TEST(QueryServiceTest, InvalidRequestsFailCleanly) {
  QueryService service;
  QueryRequest request;  // no database
  request.query = HierarchicalRSQuery();
  EXPECT_FALSE(service.Execute(request).status.ok());

  // Unknown relation: the shard reports the lineage error.
  Database db;
  db.AddRelation("Other", 1);
  db.AddTuple("Other", {0}, 0.5);
  request.db = &db;
  const QueryResponse response = service.Execute(request);
  EXPECT_FALSE(response.status.ok());
  // Both failures are visible to monitoring: the submitter-side
  // rejection and the shard-side lineage error.
  EXPECT_EQ(service.stats().totals.failures, 2u);
  EXPECT_EQ(service.stats().totals.requests, 2u);
}

// A per-request weight must be a probability: NaN, infinities and values
// outside [0, 1] fail typed at admission, counted like the other invalid
// requests, while the boundary weights 0 and 1 are served.
TEST(QueryServiceTest, OutOfRangeWeightsFailTypedAtAdmission) {
  const Database db = BipartiteRstDatabase(3, 0.5);
  QueryService service;
  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  const std::vector<double> bad = {std::nan(""),
                                   std::numeric_limits<double>::infinity(),
                                   -std::numeric_limits<double>::infinity(),
                                   -0.25, 1.5};
  for (const double w : bad) {
    request.weights.assign(db.num_tuples(), 0.5);
    request.weights[1] = w;
    const QueryResponse response = service.Execute(request);
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument) << w;
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.requests, bad.size());
  EXPECT_EQ(stats.totals.failures, bad.size());
  EXPECT_EQ(stats.totals.compiles, 0u);

  // 0 and 1 pick one world: the answer is the lineage's truth value there.
  const auto lineage = BuildLineage(request.query, db);
  ASSERT_TRUE(lineage.ok());
  for (int t = 0; t < db.num_tuples(); ++t) {
    request.weights.assign(db.num_tuples(), 1.0);
    request.weights[t] = 0.0;
    std::vector<bool> world(db.num_tuples(), true);
    world[t] = false;
    const QueryResponse response = service.Execute(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.probability, Evaluate(*lineage, world) ? 1.0 : 0.0);
  }
  stats = service.stats();
  EXPECT_EQ(stats.totals.failures, bad.size());
}

// PerConstantRsQuery (db/query.h) gives many distinct lineage functions
// over one database, which is exactly the workload that needs plan
// eviction to stay bounded.
TEST(QueryServiceTest, StaysBoundedUnderEvictionPressure) {
  const int kDomain = 6;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 2;
  options.plan_cache_capacity = 4;  // far fewer than distinct queries
  QueryService service(options);

  // Expected probabilities from the one-shot pipeline (which internally
  // cross-checks its OBDD and SDD routes), cached per distinct query.
  std::map<uint64_t, double> oracle;
  for (int round = 0; round < 300; ++round) {
    QueryRequest request;
    request.query = PerConstantRsQuery(1 + round % kDomain);
    if (round % 3 == 0) {
      request.query.disjuncts.push_back(
          PerConstantRsQuery(1 + (round / 3) % kDomain).disjuncts[0]);
    }
    if (round % 5 == 0) request.query = HierarchicalRSQuery();
    if (round % 5 == 1) request.query = InequalityExampleQuery();
    request.db = &db;
    request.route = round % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
    const QueryResponse response = service.Execute(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const uint64_t sig = QuerySignature(request.query);
    if (oracle.find(sig) == oracle.end()) {
      const auto compiled =
          CompileQuery(request.query, db, VtreeStrategy::kBalanced);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      oracle[sig] = compiled->probability;
    }
    ASSERT_NEAR(response.probability, oracle[sig], 1e-9)
        << "round " << round;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.requests, 300u);
  EXPECT_GT(stats.totals.plan_evictions, 0u);
  EXPECT_GT(stats.totals.plan_hits, 0u);
  // Residency is the plan caches alone: every compile's manager is gone.
  EXPECT_GT(stats.totals.peak_live_nodes, 0);
  EXPECT_EQ(ManagerBytes(stats), 0u);
  EXPECT_GT(stats.totals.mem_bytes, 0u);
}

// Plans are tapes: a cached plan keeps answering after the manager it was
// compiled in is destroyed. Each query below has its own lineage
// variables, so each cold compile builds a manager for its own OBDD order
// or vtree, and drops it before the request is answered.
TEST(QueryServiceTest, PlanOutlivesItsManager) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  QueryService service(options);
  std::vector<QueryRequest> requests;
  std::set<std::vector<int>> var_sets;
  for (int c = 1; c <= 4; ++c) {
    QueryRequest request;
    request.query = PerConstantRsQuery(c);
    request.db = &db;
    const auto lineage = BuildLineage(request.query, db);
    ASSERT_TRUE(lineage.ok());
    ASSERT_FALSE(lineage->Vars().empty());
    var_sets.insert(lineage->Vars());
    requests.push_back(std::move(request));
  }
  ASSERT_EQ(var_sets.size(), requests.size());

  std::map<PlanRoute, double> first_answer;
  for (const PlanRoute route : {PlanRoute::kObdd, PlanRoute::kSdd}) {
    for (QueryRequest& request : requests) {
      request.route = route;
      const QueryResponse response = service.Execute(request);
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_FALSE(response.plan_cache_hit);
      first_answer.emplace(route, response.probability);
    }
  }
  // No manager outlived its compile: the shard holds plans and nothing
  // else.
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.compiles, 2 * requests.size());
  EXPECT_EQ(stats.totals.plan_cache_size, 2 * requests.size());
  EXPECT_EQ(ManagerBytes(stats), 0u);

  // The first query's plans were compiled in managers that are gone; they
  // still answer, from the cache, exactly.
  const auto oracle =
      CompileQuery(requests[0].query, db, VtreeStrategy::kBalanced);
  ASSERT_TRUE(oracle.ok());
  for (const PlanRoute route : {PlanRoute::kObdd, PlanRoute::kSdd}) {
    QueryRequest request = requests[0];
    request.route = route;
    const QueryResponse again = service.Execute(request);
    ASSERT_TRUE(again.status.ok()) << again.status.ToString();
    EXPECT_TRUE(again.plan_cache_hit);
    EXPECT_EQ(again.probability, first_answer[route]);
    EXPECT_NEAR(again.probability, oracle->probability, 1e-9);
  }
  stats = service.stats();
  EXPECT_EQ(stats.totals.compiles, 2 * requests.size());
  EXPECT_EQ(stats.totals.plan_evictions, 0u);
}

// A compile leaves no node behind: once both routes answered, the shard's
// accounted bytes are its plan entries and their tapes, and every manager
// layer reads 0.
TEST(QueryServiceTest, CachedPlansPinNoNodes) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  QueryService service(options);
  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  for (const PlanRoute route : {PlanRoute::kObdd, PlanRoute::kSdd}) {
    request.route = route;
    const QueryResponse response = service.Execute(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  }

  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.totals.peak_live_nodes, 0);
  EXPECT_EQ(ManagerBytes(stats), 0u);
  EXPECT_EQ(stats.totals.mem_bytes,
            stats.totals.mem_bytes_by_layer[static_cast<int>(
                MemLayer::kPlanCache)]);
  EXPECT_GT(stats.totals.mem_bytes, 0u);

  // The plans still answer, from their tapes.
  const auto oracle = CompileQuery(request.query, db, VtreeStrategy::kBalanced);
  ASSERT_TRUE(oracle.ok());
  for (const PlanRoute route : {PlanRoute::kObdd, PlanRoute::kSdd}) {
    request.route = route;
    const QueryResponse again = service.Execute(request);
    ASSERT_TRUE(again.status.ok());
    EXPECT_TRUE(again.plan_cache_hit);
    EXPECT_NEAR(again.probability, oracle->probability, 1e-9);
  }
}

// A plan's entry charge covers its tape: inserting a plan moves the
// kPlanCache layer by more than the tape's bytes, and evicting it returns
// the layer exactly to where it started.
// The vtree recorded for the one live SDD plan of `service`.
std::string ServedVtree(const QueryService& service) {
  const auto plans = service.plan_stats()->Snapshot();
  if (plans.size() != 1 || plans[0]->vtree == nullptr) return "";
  return plans[0]->vtree;
}

// Hierarchical RS at domain 8 takes the apply route with min-fill width
// 2, so the shard serves it on the Lemma 1 vtree: a tenth of the balanced
// compile's size or less, with the same probability.
TEST(QueryServiceTest, ServedHierarchicalRsPlanIsLemma1Sized) {
  for (const uint64_t seed : {7, 99, 12345}) {
    const Database db = perfbench::RandomContentDb(8, 32, seed);
    const Circuit lineage = BuildLineage(HierarchicalRSQuery(), db).value();
    const std::vector<int> vars = lineage.Vars();
    SddManager balanced(Vtree::Balanced(vars));
    const int root = CompileCircuitToSdd(&balanced, lineage);
    const int balanced_size = ComputeSddStats(balanced, root).size;
    std::map<int, double> probs;
    for (const int v : vars) probs[v] = db.TupleProb(v);
    // Read-once: P = 1 - prod_x (1 - P(R_x) (1 - prod_y (1 - P(S_xy)))).
    std::map<int, double> none_of_s;  // x -> P(no S(x, y) tuple)
    for (const DbTuple& t : db.TuplesOf("S")) {
      none_of_s.emplace(t.values[0], 1.0).first->second *= 1.0 - t.prob;
    }
    double none = 1.0;
    for (const DbTuple& t : db.TuplesOf("R")) {
      const auto it = none_of_s.find(t.values[0]);
      if (it != none_of_s.end()) none *= 1.0 - t.prob * (1.0 - it->second);
    }

    ServeOptions options;
    options.num_shards = 1;
    QueryService service(options);
    QueryRequest request;
    request.query = HierarchicalRSQuery();
    request.db = &db;
    request.route = PlanRoute::kSdd;
    const QueryResponse response = service.Execute(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(ServedVtree(service), "lemma1") << seed;
    EXPECT_LE(10 * response.size, balanced_size) << seed;
    EXPECT_NEAR(response.probability,
                balanced.WeightedModelCount(root, probs), 1e-9);
    EXPECT_NEAR(response.probability, 1.0 - none, 1e-9);
  }
}

// A Lemma 1 plan small enough for the brute-force oracle: 5 R tuples and
// 14 S tuples, all in the lineage, so it takes the apply route.
TEST(QueryServiceTest, ServedLemma1PlanMatchesBruteForce) {
  Database db;
  db.AddRelation("R", 1);
  db.AddRelation("S", 2);
  for (int x = 1; x <= 5; ++x) db.AddTuple("R", {x}, 0.15 * x);
  for (int i = 0; i < 14; ++i) {
    db.AddTuple("S", {1 + i % 5, 1 + i / 5}, 0.05 + 0.06 * i);
  }
  const Ucq query = HierarchicalRSQuery();
  ASSERT_GT(static_cast<int>(BuildLineage(query, db)->Vars().size()),
            kSemanticCircuitMaxVars);
  ServeOptions options;
  options.num_shards = 1;
  QueryService service(options);
  QueryRequest request;
  request.query = query;
  request.db = &db;
  request.route = PlanRoute::kSdd;
  const QueryResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(ServedVtree(service), "lemma1");
  EXPECT_NEAR(response.probability,
              BruteForceQueryProbability(query, db).value(), 1e-9);
}

TEST(PlanCacheTest, TapeBytesRoundTripThroughInsertAndEviction) {
  const Database db = BipartiteRstDatabase(4, 0.3);
  const auto lineage = BuildLineage(HierarchicalRSQuery(), db);
  ASSERT_TRUE(lineage.ok());
  ObddManager manager(lineage->Vars());
  CompiledPlan plan;
  plan.vars = lineage->Vars();
  plan.tape = manager.BuildWmcTape(CompileCircuitToObdd(&manager, *lineage));
  const size_t tape_bytes = plan.tape.MemoryBytes();
  ASSERT_GT(tape_bytes, 0u);

  MemAccount account;
  account.Charge(MemLayer::kPlanCache, 1000);  // a nonzero starting value
  PlanCache cache(4, nullptr);
  cache.SetMemAccount(&account);
  const uint64_t before = account.bytes(MemLayer::kPlanCache);
  cache.Insert(PlanKey{}, std::move(plan));
  EXPECT_GT(account.bytes(MemLayer::kPlanCache), before + tape_bytes);
  EXPECT_EQ(account.bytes(MemLayer::kPlanCache), before + cache.MemoryBytes());
  ASSERT_TRUE(cache.EvictOne());
  EXPECT_EQ(account.bytes(MemLayer::kPlanCache), before);
  EXPECT_EQ(cache.MemoryBytes(), 0u);
  account.Charge(MemLayer::kPlanCache, -1000);
}

// --- Parallel cold compiles (shared exec pool) ----------------------------

TEST(QueryServiceTest, ParallelColdCompilesMatchSequentialService) {
  const Database db = BipartiteRstDatabase(4, 0.35);
  const std::vector<Ucq> queries = {HierarchicalRSQuery(),
                                    NonHierarchicalH0Query(),
                                    InequalityExampleQuery(),
                                    PerConstantRsQuery(1),
                                    PerConstantRsQuery(2)};
  ServeOptions sequential;
  sequential.num_shards = 2;
  QueryService seq_service(sequential);
  ServeOptions parallel = sequential;
  parallel.exec_workers = 3;
  QueryService par_service(parallel);
  for (const Ucq& query : queries) {
    for (const PlanRoute route : {PlanRoute::kObdd, PlanRoute::kSdd}) {
      QueryRequest request;
      request.query = query;
      request.db = &db;
      request.route = route;
      const QueryResponse seq = seq_service.Execute(request);
      const QueryResponse par = par_service.Execute(request);
      ASSERT_TRUE(seq.status.ok());
      ASSERT_TRUE(par.status.ok());
      // The diagrams are canonically identical, but node *ids* differ
      // across managers (parallel block allocation), and the WMC sum
      // visits elements in id order — so the float accumulation order
      // differs: equal to rounding, not bitwise.
      EXPECT_NEAR(par.probability, seq.probability, 1e-12);
      EXPECT_EQ(par.size, seq.size);
      EXPECT_EQ(par.width, seq.width);
    }
  }
}

// Recompile canonicity with parallel compiles, end to end: cold compiles
// run on the shared pool, eviction pressure forces recompiles in fresh
// managers, and recompiled (parallel) plans must answer identically
// forever.
TEST(QueryServiceTest, ParallelCompilesStayCanonicalUnderEviction) {
  const int kDomain = 6;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 2;
  options.plan_cache_capacity = 3;
  options.exec_workers = 3;
  QueryService service(options);
  std::map<uint64_t, double> first_answer;
  for (int round = 0; round < 200; ++round) {
    QueryRequest request;
    request.query = PerConstantRsQuery(1 + round % kDomain);
    if (round % 3 == 0) {
      request.query.disjuncts.push_back(
          PerConstantRsQuery(1 + (round / 3) % kDomain).disjuncts[0]);
    }
    if (round % 5 == 0) request.query = HierarchicalRSQuery();
    if (round % 5 == 1) request.query = InequalityExampleQuery();
    request.db = &db;
    request.route = round % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
    const QueryResponse response = service.Execute(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const uint64_t sig = QuerySignature(request.query) ^
                         (request.route == PlanRoute::kObdd ? 0 : 1);
    const auto [it, inserted] =
        first_answer.emplace(sig, response.probability);
    if (!inserted) {
      // The recompiled diagram is canonically identical, but fresh node
      // ids are schedule-dependent under parallel block allocation and
      // WMC sums in id order — so answers agree to rounding, not
      // bitwise.
      ASSERT_NEAR(response.probability, it->second, 1e-12)
          << "round " << round;
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.totals.plan_evictions, 0u);
  EXPECT_EQ(ManagerBytes(stats), 0u);
}

// --- Deadlines, budgets, shedding (the robustness contract) ---------------

TEST(QueryServiceRobustnessTest, ExpiredDeadlineFailsTypedAndRecovers) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  QueryService service(options);

  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  request.route = PlanRoute::kSdd;
  // A deadline of one nanosecond: either it expires while the job is
  // queued (failed at dequeue) or the compile's budget trips on its
  // first lease — both must surface as DEADLINE_EXCEEDED.
  request.deadline_ms = 1e-6;
  const QueryResponse timed_out = service.Execute(request);
  EXPECT_EQ(timed_out.status.code(), StatusCode::kDeadlineExceeded)
      << timed_out.status.ToString();
  EXPECT_EQ(service.stats().totals.timeouts, 1u);
  EXPECT_EQ(service.stats().totals.failures, 1u);

  // The failed plan was not cached; a patient retry compiles cleanly
  // and answers correctly.
  request.deadline_ms = 0;
  const QueryResponse ok = service.Execute(request);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_FALSE(ok.plan_cache_hit);
  EXPECT_FALSE(ok.degraded);
  const auto oracle = CompileQuery(request.query, db, VtreeStrategy::kBalanced);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(ok.probability, oracle->probability, 1e-9);
}

TEST(QueryServiceRobustnessTest, ImpossibleBudgetRunsTheLadderThenFailsTyped) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  options.compile_node_budget = 1;  // neither route can build anything
  QueryService service(options);

  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  request.route = PlanRoute::kSdd;
  const QueryResponse response = service.Execute(request);
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
      << response.status.ToString();
  const ServiceStats stats = service.stats();
  // The ladder tried the requested route, fell back to the alternate,
  // and both tripped the budget.
  EXPECT_EQ(stats.totals.fallbacks, 1u);
  EXPECT_EQ(stats.totals.budget_aborts, 2u);
  EXPECT_EQ(stats.totals.failures, 1u);
  // Both aborted compiles' managers went with their partial nodes.
  EXPECT_EQ(ManagerBytes(stats), 0u);
  EXPECT_EQ(stats.totals.mem_bytes, 0u);
}

// Measures the node-allocation demand of one route's compile through a
// generously budgeted manager-level compile (used() overshoots the true
// demand by at most one 256-node lease).
uint64_t MeasureRouteDemand(const Ucq& query, const Database& db,
                            PlanRoute route) {
  auto lineage = BuildLineage(query, db);
  CTSDD_CHECK(lineage.ok());
  const Circuit& circuit = lineage.value();
  WorkBudget budget(1u << 30);
  if (route == PlanRoute::kObdd) {
    ObddManager manager(circuit.Vars());
    manager.AttachBudget(&budget);
    CTSDD_CHECK_GE(CompileCircuitToObdd(&manager, circuit), 0);
  } else {
    auto vtree =
        VtreeForStrategy(circuit, circuit.Vars(), VtreeStrategy::kBalanced);
    CTSDD_CHECK(vtree.ok());
    SddManager manager(std::move(vtree).value());
    manager.AttachBudget(&budget);
    CTSDD_CHECK_GE(CompileCircuitToSdd(&manager, circuit), 0);
  }
  return budget.used();
}

TEST(QueryServiceRobustnessTest, LadderDegradesToTheCheaperRouteExactly) {
  // The non-hierarchical query's SDD (balanced vtree) costs ~8x its
  // OBDD at this domain, leaving plenty of room for a budget that fits
  // one route but not the other.
  const Database db = BipartiteRstDatabase(5, 0.4);
  const Ucq query = NonHierarchicalH0Query();
  const uint64_t obdd_demand = MeasureRouteDemand(query, db, PlanRoute::kObdd);
  const uint64_t sdd_demand = MeasureRouteDemand(query, db, PlanRoute::kSdd);
  // Pick the cheap route as the fallback and a budget with room for it
  // but not for the expensive one. If this workload's routes ever
  // converge in cost, the separation check below fails loudly so the
  // budget can be re-derived rather than silently testing nothing.
  const bool sdd_cheaper = sdd_demand < obdd_demand;
  const uint64_t cheap = std::min(obdd_demand, sdd_demand);
  const uint64_t expensive = std::max(obdd_demand, sdd_demand);
  const uint64_t budget = 2 * cheap + 512;
  ASSERT_GT(expensive, budget + 256)
      << "routes too close in cost (obdd " << obdd_demand << ", sdd "
      << sdd_demand << ") to separate with one budget";

  ServeOptions options;
  options.num_shards = 1;
  options.compile_node_budget = budget;
  QueryService service(options);
  QueryRequest request;
  request.query = query;
  request.db = &db;
  request.route = sdd_cheaper ? PlanRoute::kObdd : PlanRoute::kSdd;
  const QueryResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  // The requested route tripped its budget; the alternate answered —
  // degraded in representation, exact in value.
  EXPECT_TRUE(response.degraded);
  const auto oracle = CompileQuery(query, db, VtreeStrategy::kBalanced);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(response.probability, oracle->probability, 1e-9);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.fallbacks, 1u);
  EXPECT_EQ(stats.totals.budget_aborts, 1u);
  EXPECT_EQ(stats.totals.failures, 0u);

  // The ladder plan is cached under the original key: the repeat hits
  // and still reports degraded.
  const QueryResponse repeat = service.Execute(request);
  ASSERT_TRUE(repeat.status.ok());
  EXPECT_TRUE(repeat.plan_cache_hit);
  EXPECT_TRUE(repeat.degraded);
}

TEST(QueryServiceRobustnessTest, OverloadShedsTypedWithRetryHint) {
  const int kDomain = 6;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 1;
  options.max_queue_depth = 2;
  QueryService service(options);

  // Distinct cold-compile queries, all routed to the single shard, are
  // submitted far faster than they compile: admission must shed.
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 24; ++i) {
    QueryRequest request;
    request.query = PerConstantRsQuery(1 + i % kDomain);
    if (i % 2 == 0) {
      request.query.disjuncts.push_back(
          PerConstantRsQuery(1 + (i / 2) % kDomain).disjuncts[0]);
    }
    request.db = &db;
    request.route = PlanRoute::kSdd;
    batch.push_back(std::move(request));
  }
  const std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
  size_t sheds = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    if (responses[i].status.ok()) {
      // Accepted answers are exact despite the overload.
      const auto oracle =
          CompileQuery(batch[i].query, db, VtreeStrategy::kBalanced);
      ASSERT_TRUE(oracle.ok());
      EXPECT_NEAR(responses[i].probability, oracle->probability, 1e-9);
    } else {
      ASSERT_EQ(responses[i].status.code(), StatusCode::kUnavailable)
          << responses[i].status.ToString();
      EXPECT_GT(responses[i].retry_after_ms, 0.0);
      ++sheds;
    }
  }
  EXPECT_GT(sheds, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.sheds, sheds);
  // Shed traffic is visible as requests + failures.
  EXPECT_EQ(stats.totals.requests, batch.size());
  EXPECT_GE(stats.totals.failures, sheds);

  // After the burst drains, a shed query retried succeeds.
  const QueryResponse retry = service.Execute(batch.back());
  ASSERT_TRUE(retry.status.ok()) << retry.status.ToString();
}

// Chaos mode: tiny budgets force ladder hops, moderate deadlines force
// timeouts, bounded queues force sheds, and (in debug builds) armed
// fault sites stall the shard loop — while every accepted answer must
// stay oracle-exact and no manager may outlive its compile.
TEST(QueryServiceRobustnessTest, ChaosAcceptedAnswersStayOracleCorrect) {
  const int kDomain = 5;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 2;
  options.plan_cache_capacity = 4;
  options.compile_node_budget = 600;  // some compiles abort, some ladder
  options.max_queue_depth = 4;
  options.flight_recorder_capacity = 1024;  // every request stays in the ring
  QueryService service(options);
  if (fault::Enabled()) {
    fault::FaultSpec stall;
    stall.probability = 0.05;
    stall.seed = 20260807;
    stall.delay_ms = 1;
    fault::Arm("serve.shard.process", stall);
    fault::FaultSpec compile_stall;
    compile_stall.probability = 0.05;
    compile_stall.seed = 7;
    compile_stall.delay_ms = 1;
    fault::Arm("serve.compile", compile_stall);
  }

  std::map<uint64_t, double> oracle;
  uint64_t accepted = 0, rejected = 0;
  for (int round = 0; round < 30; ++round) {
    std::vector<QueryRequest> batch;
    for (int i = 0; i < 8; ++i) {
      const int step = round * 8 + i;
      QueryRequest request;
      request.query = PerConstantRsQuery(1 + step % kDomain);
      if (step % 3 == 0) {
        request.query.disjuncts.push_back(
            PerConstantRsQuery(1 + (step / 3) % kDomain).disjuncts[0]);
      }
      if (step % 5 == 0) request.query = HierarchicalRSQuery();
      request.db = &db;
      request.route = step % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
      if (step % 7 == 0) request.deadline_ms = 0.05;  // some will expire
      batch.push_back(std::move(request));
    }
    const std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
    for (size_t i = 0; i < responses.size(); ++i) {
      const QueryResponse& response = responses[i];
      if (!response.status.ok()) {
        // Failures must be typed — never a crash, never a wrong answer.
        const StatusCode code = response.status.code();
        EXPECT_TRUE(code == StatusCode::kDeadlineExceeded ||
                    code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kUnavailable)
            << response.status.ToString();
        ++rejected;
        continue;
      }
      ++accepted;
      const uint64_t sig = QuerySignature(batch[i].query);
      if (oracle.find(sig) == oracle.end()) {
        const auto compiled =
            CompileQuery(batch[i].query, db, VtreeStrategy::kBalanced);
        ASSERT_TRUE(compiled.ok());
        oracle[sig] = compiled->probability;
      }
      ASSERT_NEAR(response.probability, oracle[sig], 1e-9)
          << "round " << round << " index " << i
          << (response.degraded ? " (degraded)" : "");
    }
  }
  if (fault::Enabled()) fault::DisarmAll();
  EXPECT_GT(accepted, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.requests, accepted + rejected);
  // Aborted, timed-out and successful compiles alike dropped their
  // managers: nothing but plans is resident.
  EXPECT_EQ(ManagerBytes(stats), 0u);

  // The flight recorder accounted every outcome exactly once: each
  // accepted answer and each typed rejection is one ring record.
  const obs::FlightRecorder* flight = service.flight_recorder();
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->records(), accepted + rejected);
  uint64_t ok_records = 0, failed_records = 0;
  for (const obs::FlightRecord& record : flight->Snapshot()) {
    record.status_code == 0 ? ++ok_records : ++failed_records;
  }
  EXPECT_EQ(ok_records, accepted);
  EXPECT_EQ(failed_records, rejected);
}

// --- Memory governor ------------------------------------------------------

// Governed serving end to end: accepted answers stay oracle-exact, the
// governor's accounted bytes never cross the hard ceiling (peak included,
// zero breaches), and at the quiescent end the process total equals the
// sum of the shard accounts — the serve-layer accounting round-trip.
TEST(QueryServiceMemoryTest, GovernedServingStaysUnderCeilingAndExact) {
  const int kDomain = 5;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 2;
  options.plan_cache_capacity = 8;
  options.mem_hard_bytes = 64ull << 20;
  QueryService service(options);

  std::map<uint64_t, double> oracle;
  for (int step = 0; step < 60; ++step) {
    QueryRequest request;
    request.query = PerConstantRsQuery(1 + step % kDomain);
    if (step % 3 == 0) {
      request.query.disjuncts.push_back(
          PerConstantRsQuery(1 + (step / 3) % kDomain).disjuncts[0]);
    }
    request.db = &db;
    request.route = step % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
    const QueryResponse response = service.Execute(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const uint64_t sig = QuerySignature(request.query);
    if (oracle.find(sig) == oracle.end()) {
      const auto compiled =
          CompileQuery(request.query, db, VtreeStrategy::kBalanced);
      ASSERT_TRUE(compiled.ok());
      oracle[sig] = compiled->probability;
    }
    ASSERT_NEAR(response.probability, oracle[sig], 1e-9) << "step " << step;
  }

  const ServiceStats stats = service.stats();
  EXPECT_TRUE(stats.governor.enabled);
  EXPECT_EQ(stats.governor.hard_bytes, options.mem_hard_bytes);
  EXPECT_GT(stats.governor.bytes, 0u);
  EXPECT_EQ(stats.governor.hard_breaches, 0u);
  EXPECT_LE(stats.governor.peak_bytes, options.mem_hard_bytes);
  // Quiescent exactness across the serve layer: the process total is
  // exactly the sum of the shard accounts (no supervisor -> no retired
  // workers outside the live slots).
  EXPECT_EQ(stats.governor.bytes, stats.totals.mem_bytes);
  uint64_t layered = 0;
  for (const uint64_t b : stats.totals.mem_bytes_by_layer) layered += b;
  EXPECT_EQ(layered, stats.totals.mem_bytes);
  EXPECT_EQ(stats.rejected_memory,
            stats.totals.mem_rejects + stats.totals.mem_aborts);
}

// A compile's memos are released once its plan's tape is built (its
// manager is destroyed): after a warm setup over both routes the memo
// layer reads zero, while every plan stays cached and answers from its
// tape.
TEST(QueryServiceMemoryTest, WarmSetupReleasesCompileMemos) {
  const int kDomain = 5;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 2;
  QueryService service(options);
  std::vector<QueryRequest> batch;
  for (int c = 1; c <= kDomain; ++c) {
    for (const PlanRoute route : {PlanRoute::kObdd, PlanRoute::kSdd}) {
      QueryRequest request;
      request.query = PerConstantRsQuery(c);
      request.query.disjuncts.push_back(HierarchicalRSQuery().disjuncts[0]);
      request.db = &db;
      request.route = route;
      batch.push_back(request);
    }
  }
  for (const QueryResponse& r : service.ExecuteBatch(batch)) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.compiles, batch.size());
  EXPECT_EQ(stats.totals.mem_bytes_by_layer[static_cast<size_t>(
                MemLayer::kMemo)],
            0u);
  EXPECT_GT(stats.totals.mem_bytes_by_layer[static_cast<size_t>(
                MemLayer::kPlanCache)],
            0u);
  for (const QueryResponse& r : service.ExecuteBatch(batch)) {
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.plan_cache_hit);
  }
}

// `mem.reserve` chaos: injected byte-level reservation failures make
// governed compiles die typed RESOURCE_EXHAUSTED with a backoff hint —
// counted as memory rejects, never quarantine strikes — and once the
// fault is disarmed the same queries serve exactly.
TEST(QueryServiceMemoryTest, InjectedMemoryPressureIsTypedNotQuarantined) {
  const int kDomain = 5;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 1;  // one worker: a deterministic reservation stream
  options.mem_hard_bytes = 1ull << 30;  // roomy: only injection denies
  QueryService service(options);

  fault::FaultSpec spec;
  spec.fire_every = 5;  // every 5th governed reservation fails
  spec.action = [] { MemGovernor::FailNextReservationOnCurrentThread(); };
  fault::Arm("mem.reserve", spec);
  std::vector<QueryRequest> failed;
  uint64_t accepted = 0, mem_failed = 0;
  for (int step = 0; step < 40; ++step) {
    QueryRequest request;
    request.query = PerConstantRsQuery(1 + step % kDomain);
    if (step % 2 == 0) {
      request.query.disjuncts.push_back(
          PerConstantRsQuery(1 + (step / 2) % kDomain).disjuncts[0]);
    }
    request.db = &db;
    const QueryResponse response = service.Execute(request);
    if (response.status.ok()) {
      ++accepted;
      continue;
    }
    ASSERT_EQ(response.status.code(), StatusCode::kResourceExhausted)
        << response.status.ToString();
    EXPECT_GT(response.retry_after_ms, 0.0);
    ++mem_failed;
    failed.push_back(request);
  }
  fault::DisarmAll();
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(mem_failed, 0u);

  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.governor.injected_denials, 0u);
  EXPECT_GT(stats.rejected_memory, 0u);
  EXPECT_EQ(stats.rejected_quarantine, 0u);
  EXPECT_EQ(stats.supervision.quarantine_strikes, 0u);
  // Each governor denial registered as a memory-denial anomaly and the
  // first one produced an evidence dump.
  EXPECT_GE(service.flight_recorder()->anomaly_count(
                obs::Anomaly::kMemoryDenial),
            1u);
  EXPECT_GE(service.flight_recorder()->dumps(), 1u);

  // Disarmed, every previously failed query serves — exactly.
  for (const QueryRequest& request : failed) {
    const QueryResponse response = service.Execute(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const auto compiled =
        CompileQuery(request.query, db, VtreeStrategy::kBalanced);
    ASSERT_TRUE(compiled.ok());
    EXPECT_NEAR(response.probability, compiled->probability, 1e-9);
  }
}

// An embedding-supplied governor is honored: an impossible ceiling makes
// every request fail typed (reject or abort, never a wrong answer, never
// a quarantine strike), and lifting the ceiling on the same service
// restores exact serving.
TEST(QueryServiceMemoryTest, ExternalGovernorCeilingDeniesThenRecovers) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  MemGovernor gov;
  gov.SetWatermarks(0, 1);  // nothing fits
  ServeOptions options;
  options.num_shards = 1;
  options.mem_governor = &gov;
  QueryService service(options);

  QueryRequest request;
  request.query = PerConstantRsQuery(1);
  request.db = &db;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const QueryResponse denied = service.Execute(request);
    ASSERT_FALSE(denied.status.ok());
    EXPECT_EQ(denied.status.code(), StatusCode::kResourceExhausted);
    EXPECT_GT(denied.retry_after_ms, 0.0);
  }
  const ServiceStats mid = service.stats();
  EXPECT_GT(mid.rejected_memory, 0u);
  EXPECT_EQ(mid.rejected_quarantine, 0u);
  EXPECT_EQ(mid.supervision.quarantine_strikes, 0u);

  gov.SetWatermarks(0, 0);  // lift the ceiling
  const QueryResponse served = service.Execute(request);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  const auto oracle = CompileQuery(request.query, db, VtreeStrategy::kBalanced);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(served.probability, oracle->probability, 1e-9);
}

// A cold compile that lands the governor in its critical tier sheds plans
// only after it answered. Every request below is admitted below the
// critical tier; then a fault action at compile start charges an account
// outside the service past the critical watermark, so evicting plans
// cannot relieve the pressure and the shed empties the shard's cache,
// the plan just compiled included. Every answer must still be exact.
TEST(QueryServiceMemoryTest, CriticalTierAfterAColdCompileAnswersExactly) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  MemGovernor gov;
  // Critical opens at soft + 3/4 (hard - soft) = 52 MB; the 11 MB left
  // below the hard ceiling fit any compile here.
  gov.SetWatermarks(16ull << 20, 64ull << 20);
  MemAccount elsewhere;
  elsewhere.SetGovernor(&gov);
  constexpr int64_t kPressure = int64_t{53} << 20;
  std::atomic<bool> pressed{false};
  fault::FaultSpec press;
  press.fire_every = 1;
  press.action = [&] {
    if (!pressed.exchange(true)) elsewhere.Charge(MemLayer::kCache, kPressure);
  };
  ServeOptions options;
  options.num_shards = 2;
  options.mem_governor = &gov;
  QueryService service(options);
  fault::Arm("serve.compile", press);

  std::vector<Ucq> queries = {HierarchicalRSQuery(), NonHierarchicalH0Query()};
  for (int c = 1; c <= 4; ++c) queries.push_back(PerConstantRsQuery(c));
  uint64_t served = 0;
  for (const Ucq& query : queries) {
    const auto oracle = CompileQuery(query, db, VtreeStrategy::kBalanced);
    ASSERT_TRUE(oracle.ok());
    for (const PlanRoute route : {PlanRoute::kObdd, PlanRoute::kSdd}) {
      QueryRequest request;
      request.query = query;
      request.db = &db;
      request.route = route;
      const QueryResponse response = service.Execute(request);
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_FALSE(response.plan_cache_hit);
      EXPECT_NEAR(response.probability, oracle->probability, 1e-9);
      ++served;
      ASSERT_TRUE(pressed.exchange(false));
      elsewhere.Charge(MemLayer::kCache, -kPressure);
      ASSERT_EQ(gov.tier(), MemGovernor::Tier::kNone);
    }
  }
  fault::DisarmAll();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.compiles, served);
  EXPECT_EQ(stats.totals.mem_rejects, 0u);
  // Each compile's plan was shed after its answer: the cache held that
  // one plan, and evicting it left the tier critical.
  EXPECT_EQ(stats.totals.pressure_evictions, served);
  EXPECT_EQ(stats.totals.plan_cache_size, 0u);
  EXPECT_EQ(stats.governor.critical_transitions, served);
  EXPECT_EQ(stats.governor.hard_breaches, 0u);
}

// --- Supervision: hangs, deaths, quarantine -------------------------------

// A worker whose compile stalls past the heartbeat window is declared
// hung; its queued and in-flight requests fail typed UNAVAILABLE with a
// retry hint — never silently dropped — the in-flight compile's budget
// is cancelled, and the restarted shard serves the retry.
TEST(QueryServiceSupervisionTest, HungShardFailsQueuedRequestsTyped) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  options.heartbeat_window_ms = 10;
  QueryService service(options);

  fault::FaultSpec hang;
  hang.fire_at = 1;       // the first compile stalls, budget registered...
  hang.delay_ms = 150;    // ...far past the heartbeat window
  fault::Arm("serve.compile.route", hang);

  std::vector<QueryRequest> batch;
  for (int i = 0; i < 4; ++i) {
    QueryRequest request;
    request.query = PerConstantRsQuery(1 + i);
    request.db = &db;
    request.route = PlanRoute::kSdd;
    batch.push_back(std::move(request));
  }
  // ExecuteBatch returning at all proves no request was dropped: it
  // blocks until every response slot is filled.
  const std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
  fault::DisarmAll();
  ASSERT_EQ(responses.size(), batch.size());
  for (const QueryResponse& response : responses) {
    EXPECT_EQ(response.status.code(), StatusCode::kUnavailable)
        << response.status.ToString();
    EXPECT_GT(response.retry_after_ms, 0.0);
  }

  const ServiceStats during = service.stats();
  EXPECT_GE(during.supervision.hangs_detected, 1u);
  EXPECT_GE(during.supervision.shard_restarts, 1u);
  // The hang verdict registered as an anomaly with an evidence dump.
  EXPECT_GE(service.flight_recorder()->anomaly_count(
                obs::Anomaly::kHangDetected),
            1u);
  EXPECT_GE(service.flight_recorder()->dumps(), 1u);
  EXPECT_GE(during.supervision.failed_on_restart, batch.size());
  EXPECT_EQ(during.totals.requests, batch.size());
  EXPECT_EQ(during.totals.failures, batch.size());

  // The stalled worker wakes to a budget the restart cancelled: its
  // compile aborts, it loses the claim, and it never caches a plan.
  for (int spin = 0; spin < 200; ++spin) {
    if (service.stats().totals.duplicate_skips >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(service.stats().totals.duplicate_skips, 1u);
  EXPECT_EQ(service.plan_stats()->live_plans() +
                service.plan_stats()->evicted_plans(),
            0u);

  // The fresh worker serves the retry with a correct answer.
  const QueryResponse retry = service.Execute(batch.front());
  ASSERT_TRUE(retry.status.ok()) << retry.status.ToString();
  const auto oracle =
      CompileQuery(batch.front().query, db, VtreeStrategy::kBalanced);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(retry.probability, oracle->probability, 1e-9);
  // Counters stayed monotone across the restart.
  EXPECT_EQ(service.stats().totals.requests, batch.size() + 1);
}

// A worker thread that exits unbidden is declared dead; the supervisor
// restarts the shard and the recompile on the fresh worker reproduces
// the exact pre-death answer (canonical compilation is deterministic).
TEST(QueryServiceSupervisionTest, DeadWorkerIsRestartedAndRecompilesExactly) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  // Deaths are detected on the next scan (every window / 4) whatever the
  // window; a wide window keeps the slow (sanitized) cold recompile on
  // the restarted worker from reading as a hang.
  options.heartbeat_window_ms = 100;
  QueryService service(options);

  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  request.route = PlanRoute::kSdd;
  const QueryResponse before = service.Execute(request);
  ASSERT_TRUE(before.status.ok()) << before.status.ToString();

  fault::FaultSpec death;
  death.fire_at = 1;
  death.action = [] { ShardWorker::RequestDeathOnCurrentThread(); };
  fault::Arm("serve.shard.death", death);
  const QueryResponse abandoned = service.Execute(request);
  fault::DisarmAll();
  // The abandoned in-flight job was failed typed by the supervisor.
  EXPECT_EQ(abandoned.status.code(), StatusCode::kUnavailable)
      << abandoned.status.ToString();
  EXPECT_GT(abandoned.retry_after_ms, 0.0);

  const QueryResponse after = service.Execute(request);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  // The plan cache died with the worker: this was a cold recompile, and
  // determinism makes it bitwise-identical to the pre-death answer.
  EXPECT_FALSE(after.plan_cache_hit);
  EXPECT_EQ(after.probability, before.probability);

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.supervision.deaths_detected, 1u);
  EXPECT_GE(stats.supervision.shard_restarts, 1u);
  EXPECT_EQ(stats.totals.requests, 3u);
  EXPECT_EQ(stats.totals.failures, 1u);
}

// Waits until the supervisor has destroyed every restarted shard's
// carcass: its plans unpublished and its bytes released (with no traffic
// since the restart, the fresh worker holds neither).
void AwaitCarcassReaped(const QueryService& service) {
  for (int spin = 0; spin < 1000; ++spin) {
    if (service.plan_stats()->live_plans() == 0 &&
        service.stats().totals.mem_bytes == 0) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// Once the supervisor reaps a restarted shard's carcass, its plans,
// nodes and bytes are gone, and the totals must not keep reporting them.
TEST(QueryServiceSupervisionTest, ReapedWorkerLeavesNoResidencyInTheTotals) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  // Deaths are detected on the next scan whatever the window; a wide
  // window keeps slow (sanitized) warm-up compiles from reading as hangs.
  options.heartbeat_window_ms = 100;
  QueryService service(options);

  std::vector<QueryRequest> warm(3);
  warm[0].query = HierarchicalRSQuery();
  warm[1].query = PerConstantRsQuery(1);
  warm[2].query = PerConstantRsQuery(2);
  for (QueryRequest& request : warm) {
    request.db = &db;
    const QueryResponse response = service.Execute(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  }
  ASSERT_EQ(service.stats().totals.plan_cache_size, warm.size());

  fault::FaultSpec death;
  death.fire_at = 1;
  death.action = [] { ShardWorker::RequestDeathOnCurrentThread(); };
  fault::Arm("serve.shard.death", death);
  const QueryResponse abandoned = service.Execute(warm[0]);
  fault::DisarmAll();
  ASSERT_EQ(abandoned.status.code(), StatusCode::kUnavailable);

  AwaitCarcassReaped(service);
  ASSERT_EQ(service.plan_stats()->live_plans(), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.supervision.shard_restarts, 1u);
  EXPECT_EQ(stats.totals.plan_cache_size, service.plan_stats()->live_plans());
  EXPECT_EQ(stats.totals.mem_bytes, 0u);
}

// The quarantine map is bounded: at capacity, a strike on a new
// signature evicts the entry struck longest ago, which is then admitted
// again while the newer entries stay quarantined.
TEST(QuarantineTest, CapacityEvictsTheEarliestStruckSignature) {
  Quarantine::Options options;
  options.threshold = 1;
  options.capacity = 2;
  options.parole_ms = 1e7;  // no parole window opens in this test
  options.parole_max_ms = 1e7;
  Quarantine quarantine(options);
  const auto t0 = std::chrono::steady_clock::now();
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  quarantine.ReportExhausted(/*query_sig=*/1, /*db_sig=*/7, at(0));
  quarantine.ReportExhausted(2, 7, at(1));
  EXPECT_EQ(quarantine.counters().entries, 2u);
  quarantine.ReportExhausted(3, 7, at(2));
  EXPECT_EQ(quarantine.counters().entries, 2u);
  EXPECT_EQ(quarantine.counters().strikes, 3u);
  EXPECT_EQ(quarantine.Admit(1, 7, at(3), nullptr),
            Quarantine::Admission::kAdmit);
  EXPECT_EQ(quarantine.Admit(2, 7, at(3), nullptr),
            Quarantine::Admission::kReject);
  EXPECT_EQ(quarantine.Admit(3, 7, at(3), nullptr),
            Quarantine::Admission::kReject);
}

// A signature whose compiles exhaust the budget on both ladder routes
// `threshold` times is negative-cached: repeats fail RESOURCE_EXHAUSTED
// at admission without burning another compile slot, so permanent
// poison costs at most `threshold` ladder compiles — ever.
TEST(QueryServiceSupervisionTest, PermanentPoisonPaysAtMostThresholdCompiles) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  options.compile_node_budget = 1;  // nothing can compile
  options.quarantine_threshold = 2;
  options.quarantine_parole_ms = 1e7;  // parole never comes in this test
  options.quarantine_parole_max_ms = 1e7;
  QueryService service(options);

  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  request.route = PlanRoute::kSdd;
  for (int i = 0; i < 8; ++i) {
    const QueryResponse response = service.Execute(request);
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
        << "attempt " << i << ": " << response.status.ToString();
    if (i >= options.quarantine_threshold) {
      // Quarantine rejects carry the time until the next parole window.
      EXPECT_GT(response.retry_after_ms, 0.0) << "attempt " << i;
    }
  }
  const ServiceStats stats = service.stats();
  // Exactly `threshold` ladder compiles were burned; the other six
  // requests were rejected at admission.
  EXPECT_EQ(stats.totals.compiles, 2u);
  EXPECT_EQ(stats.totals.budget_aborts, 4u);  // two routes per ladder
  EXPECT_EQ(stats.supervision.quarantine_strikes, 2u);
  EXPECT_EQ(stats.supervision.quarantine_rejects, 6u);
  EXPECT_EQ(stats.supervision.quarantine_entries, 1u);
  // Every attempt is visible to monitoring.
  EXPECT_EQ(stats.totals.requests, 8u);
  EXPECT_EQ(stats.totals.failures, 8u);
  // Both strikes registered as anomalies, and all eight rejections —
  // the two worker-side exhaustions and the six admission rejects —
  // landed in the flight ring.
  EXPECT_EQ(service.flight_recorder()->anomaly_count(
                obs::Anomaly::kQuarantineStrike),
            2u);
  EXPECT_EQ(service.flight_recorder()->records(), 8u);
}

// A transiently-poisoned signature (exhaustions caused by injected
// budget trips, not the query) is re-admitted on parole once the
// interval passes; the clean trial erases the entry and the next repeat
// is an ordinary plan-cache hit.
TEST(QueryServiceSupervisionTest, TransientPoisonIsParoledThenCached) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  options.compile_node_budget = 1u << 30;  // roomy: only faults trip it
  options.quarantine_threshold = 1;
  options.quarantine_parole_ms = 40;
  QueryService service(options);

  fault::FaultSpec trip;
  trip.fire_every = 1;  // every route compile exhausts its budget
  trip.action = [] {
    ShardWorker::TripActiveBudgetOnCurrentThread(
        StatusCode::kResourceExhausted);
  };
  fault::Arm("serve.compile.route", trip);

  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  request.route = PlanRoute::kSdd;
  // Both ladder routes exhaust: one strike, immediate quarantine.
  const QueryResponse struck = service.Execute(request);
  EXPECT_EQ(struck.status.code(), StatusCode::kResourceExhausted)
      << struck.status.ToString();
  // A repeat before parole fails fast at admission.
  const QueryResponse rejected = service.Execute(request);
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(rejected.retry_after_ms, 0.0);
  fault::DisarmAll();

  // After the parole interval the trial request is admitted, compiles
  // cleanly, and earns full forgiveness.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const QueryResponse trial = service.Execute(request);
  ASSERT_TRUE(trial.status.ok()) << trial.status.ToString();
  const auto oracle = CompileQuery(request.query, db, VtreeStrategy::kBalanced);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(trial.probability, oracle->probability, 1e-9);

  const QueryResponse warm = service.Execute(request);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.plan_cache_hit);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.supervision.parole_trials, 1u);
  EXPECT_EQ(stats.supervision.parole_successes, 1u);
  EXPECT_EQ(stats.supervision.quarantine_entries, 0u);
  EXPECT_EQ(stats.totals.requests, 4u);
}

// Chaos soak: periodic hangs and thread deaths ride a mixed stream with
// budgets, deadlines, and bounded queues. Every outcome must be typed,
// every accepted answer oracle-exact, and the counters must reconcile.
// CTSDD_CHAOS_SOAK_ROUNDS scales the stream for CI soak runs.
TEST(QueryServiceSupervisionTest, ChaosSoakSurvivesHangsAndDeaths) {
  int rounds = 6;
  if (const char* env = std::getenv("CTSDD_CHAOS_SOAK_ROUNDS")) {
    rounds = std::max(1, std::atoi(env));
  }
  const int kDomain = 5;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 2;
  options.plan_cache_capacity = 4;
  options.compile_node_budget = 600;
  options.max_queue_depth = 4;
  options.heartbeat_window_ms = 10;
  options.quarantine_threshold = 3;
  options.quarantine_parole_ms = 50;
  QueryService service(options);

  fault::FaultSpec hang;
  hang.fire_every = 37;
  hang.delay_ms = 30;  // past the heartbeat window: a detected hang
  fault::Arm("serve.shard.hang", hang);
  fault::FaultSpec death;
  death.fire_every = 53;
  death.action = [] { ShardWorker::RequestDeathOnCurrentThread(); };
  fault::Arm("serve.shard.death", death);

  std::map<uint64_t, double> oracle;
  uint64_t accepted = 0, rejected = 0;
  for (int round = 0; round < rounds; ++round) {
    std::vector<QueryRequest> batch;
    for (int i = 0; i < 16; ++i) {
      const int step = round * 16 + i;
      QueryRequest request;
      request.query = PerConstantRsQuery(1 + step % kDomain);
      if (step % 3 == 0) {
        request.query.disjuncts.push_back(
            PerConstantRsQuery(1 + (step / 3) % kDomain).disjuncts[0]);
      }
      if (step % 5 == 0) request.query = HierarchicalRSQuery();
      request.db = &db;
      request.route = step % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
      batch.push_back(std::move(request));
    }
    const std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
    for (size_t i = 0; i < responses.size(); ++i) {
      const QueryResponse& response = responses[i];
      if (!response.status.ok()) {
        const StatusCode code = response.status.code();
        EXPECT_TRUE(code == StatusCode::kDeadlineExceeded ||
                    code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kUnavailable)
            << response.status.ToString();
        ++rejected;
        continue;
      }
      ++accepted;
      const uint64_t sig = QuerySignature(batch[i].query);
      if (oracle.find(sig) == oracle.end()) {
        const auto compiled =
            CompileQuery(batch[i].query, db, VtreeStrategy::kBalanced);
        ASSERT_TRUE(compiled.ok());
        oracle[sig] = compiled->probability;
      }
      ASSERT_NEAR(response.probability, oracle[sig], 1e-9)
          << "round " << round << " index " << i;
    }
  }
  fault::DisarmAll();
  EXPECT_GT(accepted, 0u);
  // A hung carcass still holds the manager of its in-flight compile until
  // the stalled compile returns; no other manager bytes may remain.
  for (int spin = 0; spin < 1000 && ManagerBytes(service.stats()) != 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const ServiceStats stats = service.stats();
  // 96+ dequeues against fire cadences of 37 and 53: at least one
  // restart happened, and the books still balance.
  EXPECT_GE(stats.supervision.shard_restarts, 1u);
  EXPECT_EQ(stats.totals.requests, accepted + rejected);
  EXPECT_EQ(ManagerBytes(stats), 0u);
}

// --- Metrics export --------------------------------------------------------

// Scalar entries of MetricsJson() by name; histograms (JSON objects) map
// to -1, so the key set still lists them.
std::map<std::string, int64_t> ParseMetricsJson(const std::string& json) {
  std::map<std::string, int64_t> out;
  size_t pos = 0;
  while ((pos = json.find("\n  \"", pos)) != std::string::npos) {
    const size_t name_begin = pos + 4;
    const size_t name_end = json.find('"', name_begin);
    const size_t value = name_end + 3;  // past `": `
    out[json.substr(name_begin, name_end - name_begin)] =
        json[value] == '{' ? -1
                           : std::strtoll(json.c_str() + value, nullptr, 10);
    pos = name_end;
  }
  return out;
}

// Every name MetricsJson() published on the workload below before the
// serve counters moved into the registry.
constexpr const char* kPublishedMetricNames[] = {
    "flight.anomalies", "flight.anomaly.hang_detected",
    "flight.anomaly.latency_outlier", "flight.anomaly.memory_denial",
    "flight.anomaly.quarantine_strike", "flight.dumps", "flight.records",
    "gc.reclaimed_nodes", "gc.runs", "governor.admit_denials",
    "governor.bytes", "governor.compile_cancels",
    "governor.critical_transitions", "governor.hard_breaches",
    "governor.optional_growth_denials", "governor.peak_bytes",
    "governor.soft_transitions", "governor.tier", "mem.bytes",
    "plan.evicted_evals", "plan.evicted_hits", "plan.evicted_plans",
    "plan.evicted_wmc_us", "plan.live_plans", "plan_cache.evictions",
    "plan_cache.hits", "plan_cache.manager_evictions", "plan_cache.misses",
    "plan_cache.size", "profiler.attempted",
    "profiler.dropped", "profiler.samples", "quarantine.entries",
    "quarantine.parole_successes", "quarantine.parole_trials",
    "quarantine.rejects", "quarantine.strikes", "serve.budget_aborts",
    "serve.compiles", "serve.duplicate_skips", "serve.failures",
    "serve.fallbacks", "serve.latency_us", "serve.peak_live_nodes",
    "serve.rejected_memory",
    "serve.rejected_quarantine", "serve.requests", "serve.sheds",
    "serve.timeouts", "supervision.deaths_detected",
    "supervision.failed_on_restart", "supervision.hangs_detected",
    "supervision.shard_restarts",
    "trace.dropped_events",
};

// Every counter ServiceStats reports is the registry value exported under
// its metric name, through an invalid request, an admission shed, a
// quarantine reject and a supervisor restart; and the export keeps every
// name the service has always published.
TEST(QueryServiceMetricsTest, StatsAreTheExportedMetrics) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  options.heartbeat_window_ms = 200;  // the shed stall is not a hang
  options.max_queue_depth = 1;
  options.compile_node_budget = 1u << 30;  // roomy: only faults trip it
  options.quarantine_threshold = 1;
  options.quarantine_parole_ms = 1e7;  // parole never comes in this test
  options.quarantine_parole_max_ms = 1e7;
  QueryService service(options);
  const auto make = [&](Ucq query) {
    QueryRequest request;
    request.query = std::move(query);
    request.db = &db;
    return request;
  };
  const QueryRequest ok = make(HierarchicalRSQuery());
  ASSERT_TRUE(service.Execute(ok).status.ok());
  ASSERT_TRUE(service.Execute(ok).plan_cache_hit);

  QueryRequest invalid = ok;
  invalid.db = nullptr;
  EXPECT_EQ(service.Execute(invalid).status.code(),
            StatusCode::kInvalidArgument);

  // Both ladder routes exhaust: one strike quarantines the signature, and
  // the repeat is rejected at admission.
  fault::FaultSpec trip;
  trip.fire_every = 1;
  trip.action = [] {
    ShardWorker::TripActiveBudgetOnCurrentThread(
        StatusCode::kResourceExhausted);
  };
  fault::Arm("serve.compile.route", trip);
  const QueryRequest poison = make(PerConstantRsQuery(2));
  EXPECT_EQ(service.Execute(poison).status.code(),
            StatusCode::kResourceExhausted);
  fault::DisarmAll();
  EXPECT_EQ(service.Execute(poison).status.code(),
            StatusCode::kResourceExhausted);

  // The first dequeue stalls (short of the heartbeat window) while the
  // rest of the batch overflows the one-deep queue.
  fault::FaultSpec stall;
  stall.fire_at = 1;
  stall.delay_ms = 50;
  fault::Arm("serve.shard.hang", stall);
  const std::vector<QueryResponse> batch = service.ExecuteBatch(
      {make(PerConstantRsQuery(1)), make(PerConstantRsQuery(3)),
       make(PerConstantRsQuery(4))});
  fault::DisarmAll();
  int shed = 0;
  for (const QueryResponse& response : batch) {
    if (response.status.code() == StatusCode::kUnavailable) ++shed;
  }
  EXPECT_GE(shed, 1);

  fault::FaultSpec death;
  death.fire_at = 1;
  death.action = [] { ShardWorker::RequestDeathOnCurrentThread(); };
  fault::Arm("serve.shard.death", death);
  EXPECT_EQ(service.Execute(ok).status.code(), StatusCode::kUnavailable);
  fault::DisarmAll();
  AwaitCarcassReaped(service);
  ASSERT_TRUE(service.Execute(ok).status.ok());

  const ServiceStats s = service.stats();
  const std::map<std::string, int64_t> exported =
      ParseMetricsJson(service.MetricsJson());
  EXPECT_EQ(s.totals.requests, 10u);
  EXPECT_EQ(s.totals.sheds, static_cast<uint64_t>(shed));
  EXPECT_EQ(s.supervision.quarantine_rejects, 1u);
  EXPECT_EQ(s.supervision.shard_restarts, 1u);
  const std::vector<std::pair<std::string, int64_t>> expected = {
      {"serve.requests", s.totals.requests},
      {"serve.failures", s.totals.failures},
      {"plan_cache.hits", s.totals.plan_hits},
      {"plan_cache.misses", s.totals.plan_misses},
      {"plan_cache.evictions", s.totals.plan_evictions},
      {"serve.compiles", s.totals.compiles},
      {"gc.runs", s.totals.gc_runs},
      {"gc.reclaimed_nodes", s.totals.gc_reclaimed},
      {"plan_cache.manager_evictions", s.totals.manager_evictions},
      {"serve.timeouts", s.totals.timeouts},
      {"serve.sheds", s.totals.sheds},
      {"serve.fallbacks", s.totals.fallbacks},
      {"serve.budget_aborts", s.totals.budget_aborts},
      {"serve.duplicate_skips", s.totals.duplicate_skips},
      {"serve.mem_rejects", s.totals.mem_rejects},
      {"serve.mem_aborts", s.totals.mem_aborts},
      {"serve.pressure_evictions", s.totals.pressure_evictions},
      {"mem.bytes", s.totals.mem_bytes},
      {"serve.peak_live_nodes", s.totals.peak_live_nodes},
      {"plan_cache.size", s.totals.plan_cache_size},
      {"supervision.hangs_detected", s.supervision.hangs_detected},
      {"supervision.deaths_detected", s.supervision.deaths_detected},
      {"supervision.shard_restarts", s.supervision.shard_restarts},
      {"supervision.failed_on_restart", s.supervision.failed_on_restart},
      {"quarantine.rejects", s.supervision.quarantine_rejects},
      {"quarantine.strikes", s.supervision.quarantine_strikes},
      {"quarantine.parole_trials", s.supervision.parole_trials},
      {"quarantine.parole_successes", s.supervision.parole_successes},
      {"quarantine.entries", s.supervision.quarantine_entries},
      {"serve.rejected_memory", s.rejected_memory},
      {"serve.rejected_quarantine", s.rejected_quarantine},
      {"governor.admit_denials", s.governor.admit_denials},
      {"governor.optional_growth_denials",
       s.governor.optional_growth_denials},
      {"governor.compile_cancels", s.governor.compile_cancels},
      {"governor.soft_transitions", s.governor.soft_transitions},
      {"governor.critical_transitions", s.governor.critical_transitions},
      {"governor.hard_breaches", s.governor.hard_breaches},
      {"governor.bytes", s.governor.bytes},
      {"governor.peak_bytes", s.governor.peak_bytes},
      {"governor.tier", s.governor.tier},
  };
  for (const auto& [name, value] : expected) {
    const auto it = exported.find(name);
    ASSERT_NE(it, exported.end()) << name;
    EXPECT_EQ(it->second, value) << name;
  }
  for (const char* name : kPublishedMetricNames) {
    EXPECT_TRUE(exported.count(name)) << name;
  }
}

}  // namespace
}  // namespace ctsdd
