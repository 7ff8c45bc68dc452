// Content signatures for the serving layer's cache keys.
//
// A compiled plan is reusable exactly when the query shape and the
// database's *structure* (relations and tuples — not probabilities) are
// unchanged: tuple probabilities enter only at weighted-model-count time
// and come from each request, so weight-varied repeats of a query share
// one plan. Signatures are 64-bit content hashes; the plan cache keys on
// the (query, database) signature pair, making an accidental collision a
// 128-bit event — far below the cache's correctness horizon.

#ifndef CTSDD_SERVE_SIGNATURE_H_
#define CTSDD_SERVE_SIGNATURE_H_

#include <cstdint>

#include "db/database.h"
#include "db/query.h"

namespace ctsdd {

// Hash of the UCQ's shape: disjuncts, atoms (relation names and term
// lists), and inequalities, in the order given. Queries that differ only
// by a syntactic reordering hash differently — a cold compile, never a
// wrong answer.
uint64_t QuerySignature(const Ucq& query);

// Hash of the database's schema and tuple contents (relation names,
// arities, tuple ids and values). Tuple probabilities are deliberately
// excluded: they are per-request weights, not plan structure.
uint64_t DatabaseSignature(const Database& db);

}  // namespace ctsdd

#endif  // CTSDD_SERVE_SIGNATURE_H_
