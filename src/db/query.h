// Unions of conjunctive queries with and without inequalities (Section 4).
//
// A term is a query variable (id >= 0) or a constant (encoded negatively);
// a conjunctive query is an existentially closed conjunction of relational
// atoms and inequalities x != y between query variables; a UCQ is a
// disjunction of conjunctive queries (all Boolean queries).

#ifndef CTSDD_DB_QUERY_H_
#define CTSDD_DB_QUERY_H_

#include <string>
#include <vector>

namespace ctsdd {

// Term encoding: variables are >= 0, constant c is EncodeConstant(c) < 0.
inline int EncodeConstant(int c) { return -(c + 1); }
inline bool IsConstantTerm(int term) { return term < 0; }
inline int DecodeConstant(int term) { return -term - 1; }

struct Atom {
  std::string relation;
  std::vector<int> args;  // terms
};

struct Inequality {
  int var1 = -1;
  int var2 = -1;
};

struct ConjunctiveQuery {
  std::vector<Atom> atoms;
  std::vector<Inequality> inequalities;

  // Distinct query variables, sorted.
  std::vector<int> Variables() const;
  bool HasSelfJoin() const;  // some relation appears in two atoms
};

struct Ucq {
  std::vector<ConjunctiveQuery> disjuncts;

  bool HasInequalities() const;
  std::string DebugString() const;
};

// --- Named query families used in the paper's Section 4 experiments ---

// The inversion chain of length k (Jha–Suciu; Lemma 7):
//   Q_k =  R(x), S_1(x, y)
//       or S_1(x, y), S_2(x, y)
//       or ...
//       or S_{k-1}(x, y), S_k(x, y)
//       or S_k(x, y), T(y)
// Q_k contains an inversion of length k; restricting its lineages yields
// the H^i_{k,n} functions.
Ucq InversionChainUcq(int k);

// The canonical hierarchical (inversion-free) query R(x), S(x, y):
// constant-width OBDD lineages.
Ucq HierarchicalRSQuery();

// Non-hierarchical H0: R(x), S(x, y), T(y) — the textbook hard query.
Ucq NonHierarchicalH0Query();

// Inequality variant of the hierarchical query:
//   R(x), S(x, y), x' != x, R(x'), S(x', y') — a simple inversion-free UCQ
// with an inequality (polynomial-size, non-constant-width OBDDs).
Ucq InequalityExampleQuery();

// R(x), S(y), x != y — the canonical inversion-free inequality query
// whose lineages have polynomial-size OBDDs of width Theta(n) under the
// R-block-then-S-block tuple order (the Figure 3 "polynomial but not
// constant width" witness).
Ucq DistinctPairQuery();

// R(c), S(c, y) for a fixed constant c: one distinct lineage function
// per constant over a shared database — the parameterized long tail the
// serving benchmarks and tests sample from.
Ucq PerConstantRsQuery(int c);

}  // namespace ctsdd

#endif  // CTSDD_DB_QUERY_H_
