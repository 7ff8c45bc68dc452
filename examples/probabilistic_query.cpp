// Probabilistic query evaluation — the paper's motivating application
// (Section 1). Builds a small tuple-independent probabilistic database,
// grounds a UCQ into its lineage circuit, analyzes the query (hierarchy /
// inversions), compiles the lineage, and computes the exact query
// probability by weighted model counting.
//
//   $ ./probabilistic_query

#include <cmath>
#include <cstdio>

#include "db/database.h"
#include "db/inversion.h"
#include "db/lineage.h"
#include "db/query.h"
#include "db/query_compile.h"

int main() {
  using namespace ctsdd;

  // A movie-style database: Watched(person, movie), Likes(person).
  Database db;
  db.AddRelation("Likes", 1);
  db.AddRelation("Watched", 2);
  // Constants: persons 1..3, movies 10..12. Probabilities are per-tuple.
  db.AddTuple("Likes", {1}, 0.9);
  db.AddTuple("Likes", {2}, 0.4);
  db.AddTuple("Likes", {3}, 0.7);
  db.AddTuple("Watched", {1, 10}, 0.8);
  db.AddTuple("Watched", {1, 11}, 0.3);
  db.AddTuple("Watched", {2, 11}, 0.5);
  db.AddTuple("Watched", {3, 12}, 0.6);
  std::printf("database: %d tuples\n", db.num_tuples());

  // Q = exists p, m: Likes(p) and Watched(p, m)  — "some liked person
  // watched something" (hierarchical, hence inversion-free).
  Ucq query;
  ConjunctiveQuery cq;
  cq.atoms.push_back({"Likes", {0}});
  cq.atoms.push_back({"Watched", {0, 1}});
  query.disjuncts.push_back(cq);
  std::printf("query: %s\n", query.DebugString().c_str());
  std::printf("hierarchical=%s inversion_length=%d\n",
              IsHierarchicalUcq(query) ? "yes" : "no",
              FindInversionLength(query));

  // Lineage circuit.
  const auto lineage = BuildLineage(query, db);
  if (!lineage.ok()) {
    std::printf("lineage failed: %s\n", lineage.status().ToString().c_str());
    return 1;
  }
  std::printf("lineage: %d gates over %d tuple variables\n",
              lineage->num_gates(),
              static_cast<int>(lineage->Vars().size()));

  // Compile via the treewidth pipeline and evaluate.
  const auto comp = CompileQuery(query, db, VtreeStrategy::kFromTreewidth);
  if (!comp.ok()) {
    std::printf("compilation failed: %s\n", comp.status().ToString().c_str());
    return 1;
  }
  std::printf("compiled: %s\n", comp->DebugString().c_str());

  // Cross-check with brute-force enumeration over all subdatabases; exit
  // 1 if they disagree.
  const auto brute = BruteForceQueryProbability(query, db);
  if (!brute.ok()) {
    std::printf("brute force failed: %s\n", brute.status().ToString().c_str());
    return 1;
  }
  std::printf("P(Q) = %.9f (compiled)  vs  %.9f (brute force)\n",
              comp->probability, brute.value());
  if (std::abs(comp->probability - brute.value()) > 1e-9) {
    std::printf("MISMATCH\n");
    return 1;
  }

  // Contrast: the non-hierarchical query Likes(p), Watched(p,m), Big(m)
  // contains an inversion — compilation still works at this scale, but
  // Theorem 5 says its lineages blow up as the database grows.
  db.AddRelation("Big", 1);
  db.AddTuple("Big", {10}, 0.5);
  db.AddTuple("Big", {11}, 0.5);
  Ucq hard;
  ConjunctiveQuery hq;
  hq.atoms.push_back({"Likes", {0}});
  hq.atoms.push_back({"Watched", {0, 1}});
  hq.atoms.push_back({"Big", {1}});
  hard.disjuncts.push_back(hq);
  std::printf("\nhard query: %s\n", hard.DebugString().c_str());
  std::printf("hierarchical=%s inversion_length=%d\n",
              IsHierarchicalUcq(hard) ? "yes" : "no",
              FindInversionLength(hard));
  const auto hard_comp = CompileQuery(hard, db);
  if (hard_comp.ok()) {
    std::printf("compiled: %s\n", hard_comp->DebugString().c_str());
  }
  return 0;
}
