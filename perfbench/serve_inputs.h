// The serving workload generator: databases with fixed tuple ids and
// seeded content, and the 39-shape UCQ population.
//
// Same generator as bench/bench_serve.cc, so a database seed and a shape
// index mean the same input in both harnesses.

#ifndef PERFBENCH_SERVE_INPUTS_H_
#define PERFBENCH_SERVE_INPUTS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/query.h"
#include "util/random.h"

namespace perfbench {

// R/S/T over domain [n] with tuple ids fixed by construction order
// (R: 0..n-1, S: n..n+edges-1, T: tail) and exactly `edges` random
// S-pairs — so every generation shares the variable universe (and thus
// the pooled managers) while computing novel lineage functions.
inline ctsdd::Database RandomContentDb(int n, int edges, uint64_t seed) {
  ctsdd::Rng rng(seed);
  ctsdd::Database db;
  db.AddRelation("R", 1);
  db.AddRelation("S", 2);
  db.AddRelation("T", 1);
  for (int l = 1; l <= n; ++l) db.AddTuple("R", {l}, 0.3);
  const std::vector<int> perm = rng.Permutation(n * n);
  for (int i = 0; i < edges; ++i) {
    const int l = 1 + perm[i] / n;
    const int m = 1 + perm[i] % n;
    db.AddTuple("S", {l, m}, 0.3);
  }
  for (int m = 1; m <= n; ++m) db.AddTuple("T", {m}, 0.3);
  return db;
}

// Index of H0 in QueryPopulation: the one shape whose lineage is not
// read-once-like (its compiled size dwarfs every other shape's).
inline constexpr int kH0Shape = 1;

// Hierarchical RS, H0, the inequality query, one per-constant query per
// constant, and one union per pair of constants: 3 + d + d(d-1)/2 shapes.
inline std::vector<ctsdd::Ucq> QueryPopulation(int domain) {
  using namespace ctsdd;
  std::vector<Ucq> queries;
  queries.push_back(HierarchicalRSQuery());
  queries.push_back(NonHierarchicalH0Query());
  queries.push_back(InequalityExampleQuery());
  for (int c = 1; c <= domain; ++c) queries.push_back(PerConstantRsQuery(c));
  for (int c = 1; c <= domain; ++c) {
    for (int d = c + 1; d <= domain; ++d) {
      Ucq pair = PerConstantRsQuery(c);
      pair.disjuncts.push_back(PerConstantRsQuery(d).disjuncts[0]);
      queries.push_back(std::move(pair));
    }
  }
  return queries;
}

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_INPUTS_H_
