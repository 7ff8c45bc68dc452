#include "serve/signature.h"

#include <string>

#include "util/hashing.h"

namespace ctsdd {
namespace {

uint64_t FoldString(uint64_t h, const std::string& s) {
  h = HashCombine(h, s.size());
  for (const char c : s) {
    h = HashCombine(h, static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

}  // namespace

uint64_t QuerySignature(const Ucq& query) {
  uint64_t h = HashMix64(0x51c2a3f0u ^ query.disjuncts.size());
  for (const ConjunctiveQuery& cq : query.disjuncts) {
    h = HashCombine(h, cq.atoms.size());
    for (const Atom& atom : cq.atoms) {
      h = FoldString(h, atom.relation);
      h = HashCombine(h, atom.args.size());
      for (const int arg : atom.args) {
        h = HashCombine(h, static_cast<uint64_t>(static_cast<int64_t>(arg)));
      }
    }
    h = HashCombine(h, cq.inequalities.size());
    for (const Inequality& ineq : cq.inequalities) {
      h = Hash3(h, static_cast<uint64_t>(ineq.var1),
                static_cast<uint64_t>(ineq.var2));
    }
  }
  return h;
}

uint64_t DatabaseSignature(const Database& db) {
  uint64_t h = HashMix64(0x7a11beadULL ^ static_cast<uint64_t>(db.num_relations()));
  for (const std::string& name : db.RelationNames()) {
    h = FoldString(h, name);
    h = HashCombine(h, static_cast<uint64_t>(db.RelationArity(name)));
    const auto& tuples = db.TuplesOf(name);
    h = HashCombine(h, tuples.size());
    for (const DbTuple& t : tuples) {
      h = HashCombine(h, static_cast<uint64_t>(t.id));
      for (const int v : t.values) {
        h = HashCombine(h, static_cast<uint64_t>(static_cast<int64_t>(v)));
      }
    }
  }
  return h;
}

}  // namespace ctsdd
