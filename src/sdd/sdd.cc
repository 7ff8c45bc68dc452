#include "sdd/sdd.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>

#include "util/fault_injection.h"
#include "util/hashing.h"
#include "util/logging.h"

namespace ctsdd {
namespace {

// Truth table word of "index bit p is set" (the positive literal pattern
// for a variable at scope position p < 6).
constexpr uint64_t kIndexBitSet[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};

// A disjunction's fold-bucket operand that is a single conjunction
// prime ∧ sub, at key position `pos`; ordered by (sub, pos).
struct Conjunct {
  SddManager::NodeId sub;
  size_t pos;
  SddManager::NodeId prime;
  bool operator<(const Conjunct& o) const {
    return sub != o.sub ? sub < o.sub : pos < o.pos;
  }
};

}  // namespace

SddManager::SddManager(Vtree vtree, Options options)
    : vtree_(std::move(vtree)),
      apply_cache_(options.apply_cache_slots),
      sem_cache_(options.sem_cache_slots) {
  CTSDD_CHECK_GE(vtree_.root(), 0) << "vtree must be rooted";
  // Small anchors: topmost ancestor (parents before children) whose scope
  // still fits one truth-table word.
  anchor_of_vnode_.assign(vtree_.num_nodes(), -1);
  anchor_mask_of_vnode_.assign(vtree_.num_nodes(), 0);
  std::vector<int> stack = {vtree_.root()};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    if (static_cast<int>(vtree_.VarsBelow(v).size()) <= kSmallScopeVars) {
      const int parent = vtree_.parent(v);
      const int up = (parent >= 0) ? anchor_of_vnode_[parent] : -1;
      const int anchor = (up >= 0) ? up : v;
      anchor_of_vnode_[v] = anchor;
      const int bits = 1 << vtree_.VarsBelow(anchor).size();
      anchor_mask_of_vnode_[v] =
          (bits >= 64) ? ~0ULL : ((1ULL << bits) - 1);
    }
    if (!vtree_.is_leaf(v)) {
      stack.push_back(vtree_.right(v));
      stack.push_back(vtree_.left(v));
    }
  }
  // Postorder (left subtree, right subtree, node) for the AndN/OrN fold.
  postorder_of_vnode_.assign(vtree_.num_nodes(), 0);
  uint32_t next_post = 0;
  std::vector<std::pair<int, bool>> todo = {{vtree_.root(), false}};
  while (!todo.empty()) {
    const auto [v, children_done] = todo.back();
    todo.pop_back();
    if (children_done || vtree_.is_leaf(v)) {
      postorder_of_vnode_[v] = next_post++;
      continue;
    }
    todo.push_back({v, true});
    todo.push_back({vtree_.right(v), false});
    todo.push_back({vtree_.left(v), false});
  }
  // Terminal constants (negations of each other).
  nodes_.PushBack({Kind::kConst, false, -1, -1, nullptr, 0});
  nodes_.PushBack({Kind::kConst, true, -1, -1, nullptr, 0});
  // Constant FastInfo entries are mostly unused (constants short-circuit
  // before any probe), but the negation links keep KnownNegation total.
  fast_info_.Reserve(2);
  fast_info_[0] = {kTrue, -1, 0};
  fast_info_[1] = {kFalse, -1, ~0ULL};
  const std::vector<int>& vars = vtree_.Vars();
  const int max_var = vars.empty() ? -1 : vars.back();
  literal_ids_.assign(2 * (max_var + 1), -1);
}

void SddManager::LinkNegations(NodeId a, NodeId b) {
  fast_info_[a].negation = b;
  fast_info_[b].negation = a;
}

uint64_t SddManager::Hash2SemKey(int anchor, uint64_t word) {
  return Hash2(static_cast<uint64_t>(anchor), word);
}

uint64_t SddManager::DecisionHash(int vnode, ElementSpan elements) {
  uint64_t hash = HashMix64(static_cast<uint64_t>(vnode));
  for (const auto& [p, s] : elements) {
    hash = HashCombine(hash, (static_cast<uint64_t>(p) << 32) |
                                 static_cast<uint32_t>(s));
  }
  return hash;
}

void SddManager::RegisterSemantic(NodeId id) {
  const Node& n = nodes_[id];
  const int anchor = anchor_of_vnode_[n.vnode];
  FastInfo& info = fast_info_[id];
  info.negation = -1;
  if (anchor < 0) {
    info.anchor = -1;
    info.word = 0;
    return;
  }
  const uint64_t mask = anchor_mask_of_vnode_[n.vnode];
  uint64_t w = 0;
  if (n.kind == Kind::kLiteral) {
    const std::vector<int>& scope = vtree_.VarsBelow(anchor);
    const int pos = static_cast<int>(
        std::lower_bound(scope.begin(), scope.end(), n.var) - scope.begin());
    w = (n.sense ? kIndexBitSet[pos] : ~kIndexBitSet[pos]) & mask;
  } else {
    // Primes and non-constant subs live below n.vnode, so they share its
    // anchor and their words are directly composable.
    for (uint32_t i = 0; i < n.num_elems; ++i) {
      const auto& [p, s] = n.elems[i];
      const uint64_t ws =
          (s == kFalse) ? 0 : (s == kTrue) ? mask : fast_info_[s].word;
      w |= fast_info_[p].word & ws;
    }
  }
  info.anchor = anchor;
  info.word = w;
  sem_cache_.Store(Hash2SemKey(anchor, w), SemKey{anchor, w}, id);
}

SddManager::NodeId SddManager::LookupSemantic(int vnode, uint64_t word) {
  const int anchor = anchor_of_vnode_[vnode];
  CTSDD_CHECK_GE(anchor, 0);
  if (word == 0) return kFalse;
  if (word == anchor_mask_of_vnode_[vnode]) return kTrue;
  NodeId hit;
  const uint64_t hash = Hash2SemKey(anchor, word);
  return sem_cache_.Lookup(hash, SemKey{anchor, word}, &hit) ? hit : -1;
}

void SddManager::AccountStructures(MemAccount* account) {
  nodes_.SetMemAccount(account);
  fast_info_.SetMemAccount(account);
  apply_cache_.SetMemAccount(account);
  sem_cache_.SetMemAccount(account);
  apply_memo_.SetMemAccount(account);
  element_arena_.SetMemAccount(account);
}

Status SddManager::Validate() const {
  const size_t n = nodes_.size();
  for (size_t id = 2; id < n; ++id) {
    const Node& node = nodes_[id];
    if (node.kind == Kind::kLiteral) {
      if (node.var < 0 || !vtree_.is_leaf(node.vnode) ||
          vtree_.LeafOf(node.var) != node.vnode) {
        return Status::Internal("malformed literal node");
      }
      const size_t key = (static_cast<size_t>(node.var) << 1) | node.sense;
      if (key >= literal_ids_.size() ||
          literal_ids_[key] != static_cast<NodeId>(id)) {
        return Status::Internal("literal not interned under its variable");
      }
      continue;
    }
    if (vtree_.is_leaf(node.vnode)) {
      return Status::Internal("decision normalized at a vtree leaf");
    }
    if (node.num_elems < 2 || node.elems == nullptr) {
      return Status::Internal("untrimmed or element-less decision");
    }
    for (uint32_t i = 0; i < node.num_elems; ++i) {
      const auto& [p, s] = node.elems[i];
      for (const NodeId child : {p, s}) {
        if (child < 0 || static_cast<size_t>(child) >= n) {
          return Status::Internal("element id out of range");
        }
      }
      if (p <= 1) {
        return Status::Internal("constant prime in multi-element decision");
      }
    }
    const int32_t found = unique_.Find(
        DecisionHash(node.vnode, {node.elems, node.num_elems}),
        [&](int32_t cand) {
          const Node& c = nodes_[cand];
          return c.vnode == node.vnode && c.num_elems == node.num_elems &&
                 std::equal(node.elems, node.elems + node.num_elems,
                            c.elems);
        });
    if (found != static_cast<int32_t>(id)) {
      return Status::Internal(
          found == UniqueTable::kEmpty
              ? "decision missing from the unique table"
              : "duplicate decision in the unique table");
    }
  }
  return Status::Ok();
}

SddManager::NodeId SddManager::Literal(int var, bool positive) {
  thread_check_.Check();
  const size_t key = (static_cast<size_t>(var) << 1) | positive;
  CTSDD_CHECK(var >= 0 && key < literal_ids_.size())
      << "variable x" << var << " not in vtree";
  if (literal_ids_[key] >= 0) return literal_ids_[key];
  const int leaf = vtree_.LeafOf(var);
  CTSDD_CHECK_GE(leaf, 0) << "variable x" << var << " not in vtree";
  const NodeId id = NewNode({Kind::kLiteral, positive, var, leaf, nullptr, 0});
  RegisterSemantic(id);
  literal_ids_[key] = id;
  // Complement literals are always linked: the second one created links
  // both, so Apply's x op !x short-circuit never misses a literal pair.
  if (literal_ids_[key ^ 1] >= 0) LinkNegations(id, literal_ids_[key ^ 1]);
  return id;
}

SddManager::NodeId SddManager::MakeDecision(int vnode, Elements* elements_in) {
  Elements& elements = *elements_in;
  if (budget_ != nullptr && budget_->tripped()) return kAborted;
  // Drop false primes.
  elements.erase(std::remove_if(elements.begin(), elements.end(),
                                [](const auto& e) { return e.first == kFalse; }),
                 elements.end());
  CTSDD_CHECK(!elements.empty())
      << "decision with no satisfiable prime (primes must be exhaustive)";
  // Abort propagation: a negative prime or sub is an upstream kAborted.
  // Checked before the trim-rule CHECKs and the unique-table probe so an
  // aborted partial decision never materializes, and before compression
  // so two aborted subs never read as an equal-sub run.
  const auto has_aborted = [&] {
    for (const auto& [p, s] : elements) {
      if ((p | s) < 0) return true;
    }
    return false;
  };
  if (budget_ != nullptr && has_aborted()) return kAborted;
  // Compress: merge elements with equal subs by disjoining their primes.
  // Sorting by sub turns compression into one linear merge over the runs;
  // each run's primes (pairwise disjoint by construction) fuse with a
  // balanced in-place Or fold instead of a sequential pairwise-Or chain.
  // All Apply calls happen before the unique-table probe below, so no table
  // operation intervenes between Find and Insert.
  std::sort(elements.begin(), elements.end(),
            [](const Element& x, const Element& y) {
              return x.second != y.second ? x.second < y.second
                                          : x.first < y.first;
            });
  size_t out = 0;
  for (size_t i = 0; i < elements.size();) {
    const NodeId sub = elements[i].second;
    NodeId prime = elements[i].first;
    size_t j = i + 1;
    while (j < elements.size() && elements[j].second == sub) ++j;
    if (j - i > 1) {
      ++counters_.compression_merges;
      // Balanced in-place fold of the run's primes (they are pairwise
      // disjoint, so operand sizes roughly add: pairing keeps each Or
      // small instead of one ever-growing accumulator).
      size_t len = j - i;
      while (len > 1) {
        size_t w = 0;
        for (size_t p = 0; p + 1 < len; p += 2) {
          elements[i + w++].first = ApplyRec(elements[i + p].first,
                                             elements[i + p + 1].first,
                                             Op::kOr);
        }
        if (len % 2 == 1) elements[i + w++].first = elements[i + len - 1].first;
        len = w;
      }
      prime = elements[i].first;
    }
    elements[out++] = {prime, sub};
    i = j;
  }
  elements.resize(out);
  // The compression applies above may have aborted too.
  if (budget_ != nullptr && has_aborted()) return kAborted;
  // Trim rule 1: {(true, s)} -> s.
  if (elements.size() == 1) {
    CTSDD_CHECK_EQ(elements[0].first, kTrue)
        << "single-element decision must have a valid (exhaustive) prime";
    return elements[0].second;
  }
  // Trim rule 2: {(p, true), (q, false)} -> p (since q = !p by partition).
  if (elements.size() == 2) {
    NodeId true_prime = -1;
    NodeId false_prime = -1;
    for (const auto& [p, s] : elements) {
      if (s == kTrue) true_prime = p;
      if (s == kFalse) false_prime = p;
    }
    if (true_prime >= 0 && false_prime >= 0) return true_prime;
  }
  std::sort(elements.begin(), elements.end());
  const uint64_t hash = DecisionHash(vnode, {elements.data(), elements.size()});
  const auto eq = [&](int32_t id) {
    const Node& n = nodes_[id];
    return n.vnode == vnode && n.num_elems == elements.size() &&
           std::equal(elements.begin(), elements.end(), n.elems);
  };
  const int32_t found = unique_.Find(hash, eq);
  if (found != UniqueTable::kEmpty) {
    // Re-store the (anchor, word) mapping, which a small semantic cache
    // may have evicted: otherwise every later LookupSemantic of this
    // function misses and the semantic compiler rebuilds it.
    const FastInfo& info = fast_info_[found];
    if (info.anchor >= 0) {
      sem_cache_.Store(Hash2SemKey(info.anchor, info.word),
                       SemKey{info.anchor, info.word}, found);
    }
    return found;
  }
  if (budget_ != nullptr && !Charge()) return kAborted;
  CTSDD_FAULT_POINT("sdd.alloc");
  Element* stored = element_arena_.Allocate(elements.size());
  std::copy(elements.begin(), elements.end(), stored);
  const NodeId id = NewNode({Kind::kDecision, false, -1, vnode, stored,
                             static_cast<uint32_t>(elements.size())});
  RegisterSemantic(id);
  unique_.Insert(hash, id);
  return id;
}

SddManager::NodeId SddManager::NewNode(const Node& n) {
  const auto id = static_cast<NodeId>(nodes_.PushBack(n));
  fast_info_.Reserve(static_cast<size_t>(id) + 1);
  return id;
}

SddManager::NodeId SddManager::Decision(int vnode, Elements elements) {
  CTSDD_CHECK(!vtree_.is_leaf(vnode))
      << "decisions are normalized at internal vtree nodes";
  EnterOp();
  const NodeId result = MakeDecision(vnode, &elements);
  LeaveOp();
  return result;
}

SddManager::ElementSpan SddManager::LiftTo(int vnode, NodeId a,
                                           std::array<Element, 2>* store) {
  const Node& n = nodes_[a];
  if (n.kind == Kind::kDecision && n.vnode == vnode) {
    return {n.elems, n.num_elems};
  }
  const int where = n.vnode;
  CTSDD_CHECK_GE(where, 0);
  if (vtree_.IsAncestorOrSelf(vtree_.left(vnode), where)) {
    // `a` lives in the left subtree: (a AND true) OR (!a AND false).
    // NotRec may grow nodes_, so `n` is dead after this point.
    const NodeId not_a = NotRec(a);
    // Valid lifts are never empty, so an empty span is the abort
    // sentinel (callers check before reading elements).
    if (budget_ != nullptr && not_a < 0) return {};
    (*store)[0] = {a, kTrue};
    (*store)[1] = {not_a, kFalse};
    return {store->data(), 2};
  }
  CTSDD_CHECK(vtree_.IsAncestorOrSelf(vtree_.right(vnode), where))
      << "operand does not respect the vtree";
  (*store)[0] = {kTrue, a};
  return {store->data(), 1};
}

SddManager::NodeId SddManager::Apply(NodeId a, NodeId b, Op op) {
  EnterOp();
  const NodeId result = ApplyRec(a, b, op);
  // The exact memos only live for the outermost operation; resetting them
  // here keeps apply memory bounded by a single operation's footprint.
  LeaveOp();
  return result;
}

SddManager::NodeId SddManager::ApplyRec(NodeId a, NodeId b, Op op) {
  if (budget_ != nullptr && ((a | b) < 0 || budget_->tripped())) {
    return kAborted;
  }
  ++counters_.apply_calls;
  // Terminals, f op f, recorded negations, and the small-scope word
  // semantics — all resolved before any cache probe.
  const NodeId fast = FastApply(a, b, op);
  if (fast >= 0) return fast;
  if (a > b) std::swap(a, b);
  const ApplyKey key{a, b, op};
  const uint64_t hash = Hash3(static_cast<uint64_t>(a),
                              static_cast<uint64_t>(b),
                              static_cast<uint64_t>(op));
  NodeId cached;
  if (apply_cache_.Lookup(hash, key, &cached)) return cached;
  if (apply_memo_.Lookup(hash, key, &cached)) return cached;

  // Distinct literals of one variable are complements, caught above; the
  // LCA of the remaining cases is internal.
  const int lca = vtree_.Lca(nodes_[a].vnode, nodes_[b].vnode);
  CTSDD_CHECK(!vtree_.is_leaf(lca));
  // The spans stay valid across the recursive Apply calls below: arena
  // chunks never move and the lift stores live on this frame.
  std::array<Element, 2> store_a, store_b;
  const ElementSpan ea = LiftTo(lca, a, &store_a);
  const ElementSpan eb = LiftTo(lca, b, &store_b);
  // An empty span is LiftTo's abort sentinel (valid lifts never are).
  if (budget_ != nullptr && (ea.empty() || eb.empty())) return kAborted;
  // Depth-indexed scratch: deeper recursive frames (including the ones
  // MakeDecision's compression spawns) use deeper buffers, so this
  // frame's elements survive the recursion without a fresh allocation.
  while (scratch_.size() <= rec_depth_) scratch_.emplace_back();
  Elements& out = scratch_[rec_depth_];
  ++rec_depth_;
  out.clear();
  out.reserve(ea.size() + eb.size() + ea.size() * eb.size());
  // Absorbing-sub collapse: a row (column) whose sub is already the op's
  // absorbing terminal contributes that sub on its whole prime, and
  // since the other operand's primes are exhaustive the merged prime
  // collapses to the row's own prime — zero applies. (The emitted rows
  // and columns may overlap on the absorbing sub; compression disjoins
  // them, and X | (!X & Y) = X | Y keeps the partition exact.)
  const NodeId absorbing = (op == Op::kAnd) ? kFalse : kTrue;
  for (const auto& [p1, s1] : ea) {
    if (s1 == absorbing) out.emplace_back(p1, s1);
  }
  for (const auto& [p2, s2] : eb) {
    if (s2 == absorbing) out.emplace_back(p2, s2);
  }
  counters_.absorb_collapses += out.size();
  for (const auto& [p1, s1] : ea) {
    if (s1 == absorbing) continue;
    for (const auto& [p2, s2] : eb) {
      if (s2 == absorbing) continue;
      // Inline resolution first: for unstructured operands most prime
      // pairs are disjoint and die in FastApply's word compare without
      // a recursive call.
      NodeId p = FastApply(p1, p2, Op::kAnd);
      if (p < 0) p = ApplyRec(p1, p2, Op::kAnd);
      if (p == kFalse) continue;
      NodeId s = (s1 == s2) ? s1 : FastApply(s1, s2, op);
      if (s < 0) s = ApplyRec(s1, s2, op);
      out.emplace_back(p, s);
    }
  }
  counters_.element_products += out.size();
  const NodeId result = MakeDecision(lca, &out);
  --rec_depth_;
  if (budget_ != nullptr && result < 0) return result;  // never cached
  apply_cache_.Store(hash, key, result);
  apply_memo_.Insert(hash, key, result);
  return result;
}

SddManager::NodeId SddManager::And(NodeId a, NodeId b) {
  return Apply(a, b, Op::kAnd);
}

SddManager::NodeId SddManager::Or(NodeId a, NodeId b) {
  return Apply(a, b, Op::kOr);
}

bool SddManager::NormalizeNaryOps(std::vector<NodeId>* ops_in,
                                  Op op, NodeId* out) {
  std::vector<NodeId>& ops = *ops_in;
  // Abort propagation, checked before the fast_info_ negation probes
  // below dereference any operand.
  if (budget_ != nullptr) {
    for (const NodeId x : ops) {
      if (x < 0) {
        *out = kAborted;
        return true;
      }
    }
  }
  const NodeId absorbing = (op == Op::kAnd) ? kFalse : kTrue;
  const NodeId identity = (op == Op::kAnd) ? kTrue : kFalse;
  size_t n = 0;
  for (const NodeId x : ops) {
    if (x == absorbing) {
      *out = absorbing;
      return true;
    }
    if (x != identity) ops[n++] = x;
  }
  ops.resize(n);
  // Duplicate and complementary operands decide or shrink the fold before
  // any apply runs. The sorted probe set is scratch (reused across calls
  // to keep this allocation-free on the hot path — NormalizeNaryOps never
  // re-enters itself within a context): the caller's operand order is
  // deliberate (fold locality) and must be preserved.
  std::vector<NodeId>& sorted = nary_probe_scratch_;
  sorted.assign(ops.begin(), ops.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (const NodeId x : sorted) {
    const NodeId nx = fast_info_[x].negation;
    if (nx >= 0 && std::binary_search(sorted.begin(), sorted.end(), nx)) {
      *out = absorbing;  // x op !x
      return true;
    }
  }
  if (sorted.size() < ops.size()) {
    // Drop duplicates, keeping first occurrences in order.
    std::vector<NodeId> seen;
    seen.reserve(sorted.size());
    size_t kept = 0;
    for (const NodeId x : ops) {
      const auto it = std::lower_bound(seen.begin(), seen.end(), x);
      if (it != seen.end() && *it == x) continue;
      seen.insert(it, x);
      ops[kept++] = x;
    }
    ops.resize(kept);
  }
  if (ops.empty()) {
    *out = identity;
    return true;
  }
  if (ops.size() == 1) {
    *out = ops[0];
    return true;
  }
  return false;
}

SddManager::NodeId SddManager::NaryRec(std::vector<NodeId> ops, Op op) {
  NodeId result;
  if (NormalizeNaryOps(&ops, op, &result)) return result;
  if (ops.size() == 2) return ApplyRec(ops[0], ops[1], op);
  // Fold bottom-up along the vtree. An operand joins the fold at the
  // vtree node it is normalized at, so each intermediate combines one
  // subtree's operands and stays within that subtree's scope.
  // (Accumulating conjunctions in circuit order took 4-5.5x the applies
  // on kc_compile's tree CNFs; n-ary disjunction chunks in a balanced
  // tree took 5-10x on H0's lineages.) The keys go past any enclosing
  // fold's, which a grouped disjunction's inner prime fold re-enters.
  std::vector<uint64_t>& keys = fold_keys_;
  const size_t base = keys.size();
  for (size_t i = 0; i < ops.size(); ++i) {
    keys.push_back(
        (static_cast<uint64_t>(postorder_of_vnode_[nodes_[ops[i]].vnode])
         << 32) |
        i);
  }
  std::sort(keys.begin() + base, keys.end());  // postorder, operand order
  result = FoldRec(ops, op, base, keys.size());
  keys.resize(base);
  return result;
}

SddManager::NodeId SddManager::FoldRec(const std::vector<NodeId>& ops, Op op,
                                       size_t lo, size_t hi) {
  const std::vector<uint64_t>& keys = fold_keys_;
  const auto op_at = [&](size_t k) { return ops[keys[k] & 0xffffffffu]; };
  const NodeId absorbing = (op == Op::kAnd) ? kFalse : kTrue;
  const NodeId identity = (op == Op::kAnd) ? kTrue : kFalse;
  const auto combine = [&](NodeId acc, NodeId x) {
    return (acc == identity) ? x : ApplyRec(acc, x, op);
  };
  // The LCA of a postorder-sorted set is that of its first and last
  // members, and w's own bucket closes the range (postorder ends each
  // subtree with its root).
  const int w =
      vtree_.Lca(nodes_[op_at(lo)].vnode, nodes_[op_at(hi - 1)].vnode);
  const uint64_t post_w = postorder_of_vnode_[w];
  size_t bucket = hi;
  while (bucket > lo && (keys[bucket - 1] >> 32) == post_w) --bucket;
  NodeId acc = identity;
  if (bucket > lo) {
    // Keys below w: the left subtree's postorder range precedes the
    // right's. Either half may be empty when w has a bucket.
    const uint64_t left_last =
        (static_cast<uint64_t>(postorder_of_vnode_[vtree_.left(w)]) << 32) |
        0xffffffffu;
    const size_t split = static_cast<size_t>(
        std::upper_bound(keys.begin() + lo, keys.begin() + bucket,
                         left_last) -
        keys.begin());
    if (split > lo) acc = FoldRec(ops, op, lo, split);
    if (split < bucket && acc != absorbing && acc >= 0) {
      acc = combine(acc, FoldRec(ops, op, split, bucket));
    }
  }
  // A disjunction's bucket is compressed first (Darwiche 2011): its
  // single conjunctions p ∧ s, decisions {(p, s), (¬p, ⊥)}, that share a
  // sub s merge into (p_1 ∨ ... ∨ p_k) ∧ s, so their primes disjoin in
  // w's left subtree instead of each p_i ∧ s walking the accumulated
  // disjunction. Then the bucket accumulates in operand order, each group
  // at its first member's place. (Joining the groups in sub order took
  // 1.4x the applies on H0's lineage.)
  const auto single_conjunction = [&](NodeId x, Element* e) {
    const Node& n = nodes_[x];
    if (op != Op::kOr || n.kind != Kind::kDecision || n.num_elems != 2 ||
        (n.elems[0].second == kFalse) == (n.elems[1].second == kFalse)) {
      return false;
    }
    *e = n.elems[n.elems[0].second == kFalse ? 1 : 0];
    return true;
  };
  std::vector<Conjunct> by_sub;
  Element e;
  for (size_t k = bucket; k < hi; ++k) {
    if (single_conjunction(op_at(k), &e)) {
      by_sub.push_back({e.second, k, e.first});
    }
  }
  std::sort(by_sub.begin(), by_sub.end());
  for (size_t k = bucket; k < hi && acc != absorbing && acc >= 0; ++k) {
    NodeId x = op_at(k);
    if (single_conjunction(x, &e)) {
      auto it = std::lower_bound(by_sub.begin(), by_sub.end(),
                                 Conjunct{e.second, 0, kFalse});
      if (it->pos != k) continue;  // in an earlier member's group
      std::vector<NodeId> primes;
      for (; it != by_sub.end() && it->sub == e.second; ++it) {
        primes.push_back(it->prime);
      }
      if (primes.size() > 1) {
        x = ApplyRec(NaryRec(std::move(primes), Op::kOr), e.second,
                     Op::kAnd);
      }
    }
    acc = combine(acc, x);
  }
  return acc;
}

SddManager::NodeId SddManager::AndN(std::vector<NodeId> ops) {
  EnterOp();
  const NodeId result = NaryRec(std::move(ops), Op::kAnd);
  LeaveOp();
  return result;
}

SddManager::NodeId SddManager::OrN(std::vector<NodeId> ops) {
  EnterOp();
  const NodeId result = NaryRec(std::move(ops), Op::kOr);
  LeaveOp();
  return result;
}

SddManager::NodeId SddManager::Not(NodeId a) {
  EnterOp();
  const NodeId result = NotRec(a);
  LeaveOp();
  return result;
}

SddManager::NodeId SddManager::NotRec(NodeId a) {
  if (budget_ != nullptr && (a < 0 || budget_->tripped())) return kAborted;
  if (a == kFalse) return kTrue;
  if (a == kTrue) return kFalse;
  // The exact negation links are a complete, unbounded memo: every
  // negation ever computed (and every complement literal pair) is linked,
  // so a hit here is O(1) and a whole-diagram negation visits each
  // unlinked node once.
  const NodeId linked = fast_info_[a].negation;
  if (linked >= 0) return linked;
  // Copy the node header: recursive calls below may grow nodes_. The
  // element pointer stays valid (arena chunks never move).
  const Node n = nodes_[a];
  NodeId result;
  if (n.kind == Kind::kLiteral) {
    result = Literal(n.var, !n.sense);
  } else {
    Elements out(n.elems, n.elems + n.num_elems);
    for (auto& [p, s] : out) s = NotRec(s);
    result = MakeDecision(n.vnode, &out);
  }
  if (budget_ != nullptr && result < 0) return result;  // never linked
  LinkNegations(a, result);
  return result;
}

SddManager::NodeId SddManager::Restrict(NodeId a, int var, bool value) {
  const int leaf = vtree_.LeafOf(var);
  CTSDD_CHECK_GE(leaf, 0);
  EnterOp();
  std::unordered_map<NodeId, NodeId> memo;
  std::function<NodeId(NodeId)> rec = [&](NodeId u) -> NodeId {
    if (IsConst(u)) return u;
    // Copy the node header: recursive calls may grow nodes_.
    const Node n = nodes_[u];
    // If var is outside u's scope, u is unchanged.
    if (!vtree_.IsAncestorOrSelf(n.vnode, leaf)) return u;
    const auto it = memo.find(u);
    if (it != memo.end()) return it->second;
    NodeId result;
    if (n.kind == Kind::kLiteral) {
      result = (n.sense == value) ? kTrue : kFalse;
    } else {
      Elements out(n.elems, n.elems + n.num_elems);
      if (vtree_.IsAncestorOrSelf(vtree_.left(n.vnode), leaf)) {
        for (auto& [p, s] : out) p = rec(p);
      } else {
        for (auto& [p, s] : out) s = rec(s);
      }
      result = MakeDecision(n.vnode, &out);
    }
    memo.emplace(u, result);
    return result;
  };
  const NodeId result = rec(a);
  LeaveOp();
  return result;
}

SddManager::NodeId SddManager::Exists(NodeId a, int var) {
  return Or(Restrict(a, var, false), Restrict(a, var, true));
}

SddManager::NodeId SddManager::Forall(NodeId a, int var) {
  return And(Restrict(a, var, false), Restrict(a, var, true));
}

SddManager::NodeId SddManager::ExistsAll(NodeId a,
                                         const std::vector<int>& vars) {
  for (int var : vars) a = Exists(a, var);
  return a;
}

bool SddManager::AnyModel(NodeId a, std::map<int, bool>* out) const {
  out->clear();
  if (a == kFalse) return false;
  // Walk down: at each decision pick a satisfiable (prime, sub) pair with
  // sub != false; fill unconstrained variables with false.
  std::function<bool(NodeId)> descend = [&](NodeId u) -> bool {
    if (u == kFalse) return false;
    if (u == kTrue) return true;
    const Node& n = nodes_[u];
    if (n.kind == Kind::kLiteral) {
      out->emplace(n.var, n.sense);
      return true;
    }
    for (const auto& [p, s] : elements(u)) {
      if (s == kFalse) continue;
      // Primes are satisfiable by construction.
      if (!descend(p)) continue;
      return descend(s);
    }
    return false;
  };
  if (!descend(a)) return false;
  for (int v : vtree_.Vars()) out->try_emplace(v, false);
  return true;
}

bool SddManager::Evaluate(NodeId a,
                          const std::map<int, bool>& assignment) const {
  std::function<bool(NodeId)> rec = [&](NodeId u) -> bool {
    if (u == kFalse) return false;
    if (u == kTrue) return true;
    const Node& n = nodes_[u];
    if (n.kind == Kind::kLiteral) {
      const auto it = assignment.find(n.var);
      CTSDD_CHECK(it != assignment.end())
          << "assignment missing variable x" << n.var;
      return it->second == n.sense;
    }
    for (const auto& [p, s] : elements(u)) {
      if (rec(p)) return rec(s);
    }
    CTSDD_CHECK(false) << "primes must be exhaustive";
    return false;
  };
  return rec(a);
}

uint64_t SddManager::CountModelsAt(
    NodeId a, int vnode, std::unordered_map<uint64_t, uint64_t>* memo) const {
  const int scope = static_cast<int>(vtree_.VarsBelow(vnode).size());
  CTSDD_CHECK_LE(scope, 62);
  if (a == kFalse) return 0;
  if (a == kTrue) return 1ULL << scope;
  const uint64_t key = (static_cast<uint64_t>(a) << 20) |
                       static_cast<uint64_t>(vnode);
  const auto it = memo->find(key);
  if (it != memo->end()) return it->second;
  const Node& n = nodes_[a];
  CTSDD_CHECK(vtree_.IsAncestorOrSelf(vnode, n.vnode))
      << "node out of scope for model counting";
  uint64_t result;
  if (n.kind == Kind::kLiteral) {
    result = 1ULL << (scope - 1);
  } else {
    const int w = n.vnode;
    uint64_t base = 0;
    for (const auto& [p, s] : elements(a)) {
      base += CountModelsAt(p, vtree_.left(w), memo) *
              CountModelsAt(s, vtree_.right(w), memo);
    }
    const int w_scope = static_cast<int>(vtree_.VarsBelow(w).size());
    result = base << (scope - w_scope);
  }
  memo->emplace(key, result);
  return result;
}

uint64_t SddManager::CountModels(NodeId a) const {
  std::unordered_map<uint64_t, uint64_t> memo;
  return CountModelsAt(a, vtree_.root(), &memo);
}

double SddManager::WeightedModelCount(
    NodeId a, const std::map<int, double>& prob) const {
  const std::vector<int>& vars = vtree_.Vars();
  std::vector<double> probs(vars.size(), 0.5);
  for (size_t i = 0; i < vars.size(); ++i) {
    const auto it = prob.find(vars[i]);
    if (it != prob.end()) probs[i] = it->second;
  }
  std::vector<double> values;
  return BuildWmcTape(a, vars).Evaluate(probs, &values);
}

WmcTape SddManager::BuildWmcTape(NodeId a,
                                 std::span<const int> slot_vars) const {
  int max_var = 0;
  for (const int v : slot_vars) max_var = std::max(max_var, v);
  std::vector<int> slot_of_var(static_cast<size_t>(max_var) + 1, -1);
  for (size_t i = 0; i < slot_vars.size(); ++i) {
    slot_of_var[static_cast<size_t>(slot_vars[i])] = static_cast<int>(i);
  }
  const auto leaf_entry = [&](NodeId u) -> int64_t {
    if (u <= kTrue) return u;
    const Node& n = nodes_[u];
    if (n.kind != Kind::kLiteral) return -1;
    const int slot = n.var <= max_var ? slot_of_var[n.var] : -1;
    CTSDD_CHECK_GE(slot, 0) << "x" << n.var << " has no weight slot";
    return WmcTape::LiteralEntry(static_cast<uint32_t>(slot), n.sense);
  };
  return Linearize(a, static_cast<uint32_t>(slot_vars.size()), leaf_entry,
                   [&](NodeId u, const auto& entry_of, WmcTape* tape) {
                     for (const auto& [p, s] : elements(u)) {
                       tape->AddElement(entry_of(p), entry_of(s));
                     }
                   });
}

BoolFunc SddManager::ToBoolFunc(NodeId a) const {
  const std::vector<int>& all = vtree_.Vars();
  CTSDD_CHECK_LE(static_cast<int>(all.size()), BoolFunc::kMaxVars);
  std::unordered_map<NodeId, BoolFunc> memo;
  std::function<BoolFunc(NodeId)> rec = [&](NodeId u) -> BoolFunc {
    if (u == kFalse) return BoolFunc::Constant(false);
    if (u == kTrue) return BoolFunc::Constant(true);
    const auto it = memo.find(u);
    if (it != memo.end()) return it->second;
    const Node& n = nodes_[u];
    BoolFunc result;
    if (n.kind == Kind::kLiteral) {
      result = BoolFunc::Literal(n.var, n.sense);
    } else {
      result = BoolFunc::Constant(false);
      for (const auto& [p, s] : elements(u)) {
        result = result | (rec(p) & rec(s));
      }
    }
    memo.emplace(u, result);
    return result;
  };
  return rec(a).ExpandTo(all);
}

int SddManager::Size(NodeId a) const {
  int total = 0;
  for (int count : VtreeProfile(a)) total += count;
  return total;
}

int SddManager::NumDecisions(NodeId a) const {
  int count = 0;
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> stack = {a};
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if (IsConst(u) || seen[u]) continue;
    seen[u] = true;
    if (nodes_[u].kind == Kind::kDecision) {
      ++count;
      for (const auto& [p, s] : elements(u)) {
        stack.push_back(p);
        stack.push_back(s);
      }
    }
  }
  return count;
}

std::vector<int> SddManager::VtreeProfile(NodeId a) const {
  std::vector<int> profile(vtree_.num_nodes(), 0);
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> stack = {a};
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if (IsConst(u) || seen[u]) continue;
    seen[u] = true;
    const Node& n = nodes_[u];
    if (n.kind == Kind::kDecision) {
      profile[n.vnode] += static_cast<int>(n.num_elems);
      for (const auto& [p, s] : elements(u)) {
        stack.push_back(p);
        stack.push_back(s);
      }
    }
  }
  return profile;
}

int SddManager::Width(NodeId a) const {
  int width = 0;
  for (int count : VtreeProfile(a)) width = std::max(width, count);
  return width;
}

Status SddManager::Validate(NodeId a) {
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> stack = {a};
  std::unordered_map<uint64_t, uint64_t> memo;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if (IsConst(u) || seen[u]) continue;
    seen[u] = true;
    // Copy the node header: the disjointness checks below may grow nodes_.
    // The element pointer stays valid (arena chunks never move).
    const Node n = nodes_[u];
    if (n.kind == Kind::kLiteral) continue;
    if (vtree_.is_leaf(n.vnode)) {
      return Status::Internal("decision normalized at a vtree leaf");
    }
    if (n.num_elems < 2) {
      return Status::Internal("untrimmed single-element decision");
    }
    const int left = vtree_.left(n.vnode);
    const int right = vtree_.right(n.vnode);
    const ElementSpan elems{n.elems, n.num_elems};
    uint64_t prime_models = 0;
    std::vector<NodeId> subs;
    for (const auto& [p, s] : elems) {
      if (p == kFalse || p == kTrue) {
        return Status::Internal("constant prime in multi-element decision");
      }
      if (!vtree_.IsAncestorOrSelf(left, nodes_[p].vnode)) {
        return Status::Internal("prime outside left vtree subtree");
      }
      if (!IsConst(s) && !vtree_.IsAncestorOrSelf(right, nodes_[s].vnode)) {
        return Status::Internal("sub outside right vtree subtree");
      }
      prime_models += CountModelsAt(p, left, &memo);
      subs.push_back(s);
      stack.push_back(p);
      stack.push_back(s);
    }
    // Pairwise disjointness of primes.
    for (size_t i = 0; i < elems.size(); ++i) {
      for (size_t j = i + 1; j < elems.size(); ++j) {
        if (And(elems[i].first, elems[j].first) != kFalse) {
          return Status::Internal("primes not pairwise disjoint");
        }
      }
    }
    // Exhaustiveness: disjoint primes partition iff counts sum to the cube.
    const int left_scope = static_cast<int>(vtree_.VarsBelow(left).size());
    if (prime_models != (1ULL << left_scope)) {
      return Status::Internal("primes do not partition their scope");
    }
    std::sort(subs.begin(), subs.end());
    if (std::adjacent_find(subs.begin(), subs.end()) != subs.end()) {
      return Status::Internal("duplicate subs (compression violated)");
    }
  }
  return Status::Ok();
}

}  // namespace ctsdd
