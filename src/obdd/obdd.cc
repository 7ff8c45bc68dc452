#include "obdd/obdd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>

#include "util/fault_injection.h"
#include "util/hashing.h"

namespace ctsdd {

ObddManager::ObddManager(std::vector<int> var_order, Options options)
    : var_order_(std::move(var_order)),
      ite_cache_(options.ite_cache_slots),
      nary_cache_(options.nary_cache_slots) {
  for (int i = 0; i < num_levels(); ++i) {
    const auto [it, inserted] = level_of_var_.emplace(var_order_[i], i);
    CTSDD_CHECK(inserted) << "duplicate variable in order";
    (void)it;
  }
  // Terminals occupy ids 0 and 1 with a sentinel level beyond the last.
  nodes_.PushBack({num_levels(), -1, -1});
  nodes_.PushBack({num_levels(), -1, -1});
}

int ObddManager::LevelOf(int var) const {
  const auto it = level_of_var_.find(var);
  return it == level_of_var_.end() ? -1 : it->second;
}

ObddManager::NodeId ObddManager::HashCons(int level, NodeId lo, NodeId hi) {
  if (lo == hi) return lo;  // reduction rule
  // Abort-sentinel children unwind the construction. The register-only
  // sign test beats consulting the budget here: kAborted only arises
  // while a budget is attached, and a tripped budget is re-observed at
  // the next lease refill (denying the allocation) anyway.
  if ((lo | hi) < 0) return kAborted;
  CTSDD_CHECK_LT(level, nodes_[lo].level);
  CTSDD_CHECK_LT(level, nodes_[hi].level);
  const uint64_t hash = NodeHash(level, lo, hi);
  const int32_t found = unique_.Find(hash, [&](int32_t id) {
    const Node& n = nodes_[id];
    return n.level == level && n.lo == lo && n.hi == hi;
  });
  if (found != UniqueTable::kEmpty) return found;
  if (budget_ != nullptr && !Charge()) return kAborted;
  CTSDD_FAULT_POINT("obdd.alloc");
  const auto id = static_cast<NodeId>(nodes_.PushBack(Node{level, lo, hi}));
  unique_.Insert(hash, id);
  return id;
}

ObddManager::NodeId ObddManager::MakeNode(int level, NodeId lo, NodeId hi) {
  thread_check_.Check();
  return HashCons(level, lo, hi);
}

void ObddManager::AccountStructures(MemAccount* account) {
  nodes_.SetMemAccount(account);
  ite_cache_.SetMemAccount(account);
  nary_cache_.SetMemAccount(account);
  ite_memo_.SetMemAccount(account);
  nary_memo_.SetMemAccount(account);
}

Status ObddManager::Validate() const {
  const int levels = num_levels();
  const size_t n = nodes_.size();
  for (size_t id = 2; id < n; ++id) {
    const Node& node = nodes_[id];
    if (node.level < 0 || node.level >= levels) {
      return Status::Internal("node level out of range");
    }
    if (node.lo < 0 || static_cast<size_t>(node.lo) >= n || node.hi < 0 ||
        static_cast<size_t>(node.hi) >= n) {
      return Status::Internal("node child out of range");
    }
    if (node.lo == node.hi) {
      return Status::Internal("unreduced node (lo == hi)");
    }
    if (nodes_[node.lo].level <= node.level ||
        nodes_[node.hi].level <= node.level) {
      return Status::Internal("child level not below parent");
    }
    const uint64_t hash = NodeHash(node.level, node.lo, node.hi);
    const int32_t found = unique_.Find(hash, [&](int32_t cand) {
      const Node& c = nodes_[cand];
      return c.level == node.level && c.lo == node.lo && c.hi == node.hi;
    });
    if (found != static_cast<int32_t>(id)) {
      return Status::Internal(
          found == UniqueTable::kEmpty
              ? "node missing from the unique table"
              : "duplicate node in the unique table");
    }
  }
  return Status::Ok();
}

ObddManager::NodeId ObddManager::Literal(int var, bool positive) {
  const int level = LevelOf(var);
  CTSDD_CHECK_GE(level, 0) << "variable x" << var << " not in order";
  return positive ? MakeNode(level, kFalse, kTrue)
                  : MakeNode(level, kTrue, kFalse);
}

ObddManager::NodeId ObddManager::CofactorLo(NodeId f, int level) const {
  const Node& n = nodes_[f];
  return n.level == level ? n.lo : f;
}

ObddManager::NodeId ObddManager::CofactorHi(NodeId f, int level) const {
  const Node& n = nodes_[f];
  return n.level == level ? n.hi : f;
}

ObddManager::NodeId ObddManager::Ite(NodeId f, NodeId g, NodeId h) {
  thread_check_.Check();
  ++op_depth_;
  const NodeId result = IteRec(f, g, h);
  LeaveOp();
  return result;
}

ObddManager::NodeId ObddManager::IteRec(NodeId f, NodeId g, NodeId h) {
  if (budget_ != nullptr && ((f | g | h) < 0 || budget_->tripped())) {
    return kAborted;
  }
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;
  const IteKey key{f, g, h};
  const uint64_t hash = Hash3(static_cast<uint64_t>(f),
                              static_cast<uint64_t>(g),
                              static_cast<uint64_t>(h));
  NodeId cached;
  if (ite_cache_.Lookup(hash, key, &cached)) return cached;
  if (ite_memo_.Lookup(hash, key, &cached)) return cached;
  const int level =
      std::min({nodes_[f].level, nodes_[g].level, nodes_[h].level});
  const NodeId lo = IteRec(CofactorLo(f, level), CofactorLo(g, level),
                           CofactorLo(h, level));
  const NodeId hi = IteRec(CofactorHi(f, level), CofactorHi(g, level),
                           CofactorHi(h, level));
  const NodeId result = HashCons(level, lo, hi);
  if (budget_ != nullptr && result < 0) return result;  // never cached
  ite_cache_.Store(hash, key, result);
  ite_memo_.Insert(hash, key, result);
  return result;
}

ObddManager::NodeId ObddManager::Not(NodeId f) {
  return Ite(f, kFalse, kTrue);
}

ObddManager::NodeId ObddManager::And(NodeId f, NodeId g) {
  return Ite(f, g, kFalse);
}

ObddManager::NodeId ObddManager::Or(NodeId f, NodeId g) {
  return Ite(f, kTrue, g);
}

ObddManager::NodeId ObddManager::Xor(NodeId f, NodeId g) {
  return Ite(f, Not(g), g);
}

ObddManager::NodeId ObddManager::ApplyN(std::vector<NodeId> ops,
                                        bool is_and) {
  thread_check_.Check();
  ++op_depth_;
  const NodeId result = (is_and && ops.size() > kNaryFoldArity)
                            ? AndFold(std::move(ops))
                            : ApplyNRec(std::move(ops), is_and);
  LeaveOp();
  return result;
}

ObddManager::NodeId ObddManager::AndFold(std::vector<NodeId> ops) {
  if (budget_ != nullptr) {
    if (budget_->tripped()) return kAborted;
    for (const NodeId op : ops) {
      if (op < 0) return kAborted;
    }
  }
  // Deepest top level first, ties in operand order: (levels - level,
  // index) packed per word, so a plain sort is stable.
  std::vector<uint64_t> keyed;
  keyed.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i] == kFalse) return kFalse;
    if (ops[i] == kTrue) continue;
    keyed.push_back(
        (static_cast<uint64_t>(num_levels() - nodes_[ops[i]].level) << 32) |
        i);
  }
  std::sort(keyed.begin(), keyed.end());
  NodeId acc = kTrue;
  for (const uint64_t k : keyed) {
    acc = IteRec(ops[k & 0xffffffffu], acc, kFalse);
    if (acc == kFalse || acc < 0) break;
  }
  return acc;
}

ObddManager::NodeId ObddManager::ApplyNRec(std::vector<NodeId> ops,
                                           bool is_and) {
  if (budget_ != nullptr) {
    if (budget_->tripped()) return kAborted;
    for (const NodeId op : ops) {
      if (op < 0) return kAborted;
    }
  }
  const NodeId absorbing = is_and ? kFalse : kTrue;
  const NodeId neutral = is_and ? kTrue : kFalse;
  // Normalize: drop neutral operands, short-circuit on absorbing ones,
  // canonicalize order (min level first) and deduplicate.
  // Decorated sort: pack (level, id) into one word per operand so the
  // comparator never re-touches the node store (one node access per
  // operand instead of one per comparison). Equal ids pack equally, so
  // the adjacent-unique dedup carries over.
  std::vector<uint64_t> keyed;
  keyed.reserve(ops.size());
  for (const NodeId op : ops) {
    if (op == absorbing) return absorbing;
    if (op != neutral) {
      keyed.push_back((static_cast<uint64_t>(nodes_[op].level) << 32) |
                      static_cast<uint32_t>(op));
    }
  }
  std::sort(keyed.begin(), keyed.end());
  keyed.erase(std::unique(keyed.begin(), keyed.end()), keyed.end());
  ops.resize(keyed.size());
  for (size_t i = 0; i < keyed.size(); ++i) {
    ops[i] = static_cast<NodeId>(static_cast<uint32_t>(keyed[i]));
  }
  if (ops.empty()) return neutral;
  if (ops.size() == 1) return ops[0];
  if (ops.size() == 2) {
    const NodeId a = ops[0], b = ops[1];
    return is_and ? IteRec(a, b, kFalse) : IteRec(a, kTrue, b);
  }
  uint64_t hash = HashMix64(is_and ? 0x517cc1b727220a95ULL : 1);
  for (const NodeId op : ops) {
    hash = HashCombine(hash, static_cast<uint64_t>(op));
  }
  NaryKey key{is_and, ops};
  NodeId cached;
  if (nary_cache_.Lookup(hash, key, &cached)) return cached;
  if (nary_memo_.Lookup(hash, key, &cached)) return cached;
  const int level = nodes_[ops[0]].level;  // min level after the sort
  std::vector<NodeId> lo_ops;
  std::vector<NodeId> hi_ops;
  lo_ops.reserve(ops.size());
  hi_ops.reserve(ops.size());
  for (const NodeId op : ops) {
    lo_ops.push_back(CofactorLo(op, level));
    hi_ops.push_back(CofactorHi(op, level));
  }
  const NodeId lo = ApplyNRec(std::move(lo_ops), is_and);
  const NodeId hi = ApplyNRec(std::move(hi_ops), is_and);
  const NodeId result = HashCons(level, lo, hi);
  if (budget_ != nullptr && result < 0) return result;  // never cached
  nary_cache_.Store(hash, key, result);
  nary_memo_.Insert(hash, std::move(key), result);
  return result;
}

ObddManager::NodeId ObddManager::AndN(std::vector<NodeId> ops) {
  return ApplyN(std::move(ops), /*is_and=*/true);
}

ObddManager::NodeId ObddManager::OrN(std::vector<NodeId> ops) {
  return ApplyN(std::move(ops), /*is_and=*/false);
}

ObddManager::NodeId ObddManager::Restrict(NodeId f, int var, bool value) {
  const int level = LevelOf(var);
  CTSDD_CHECK_GE(level, 0);
  // Recursive restrict with a local cache keyed by node id.
  std::unordered_map<NodeId, NodeId> cache;
  std::function<NodeId(NodeId)> rec = [&](NodeId u) -> NodeId {
    if (IsTerminal(u) || nodes_[u].level > level) return u;
    const auto it = cache.find(u);
    if (it != cache.end()) return it->second;
    NodeId result;
    if (nodes_[u].level == level) {
      result = value ? nodes_[u].hi : nodes_[u].lo;
    } else {
      result = MakeNode(nodes_[u].level, rec(nodes_[u].lo), rec(nodes_[u].hi));
    }
    cache.emplace(u, result);
    return result;
  };
  return rec(f);
}

bool ObddManager::Evaluate(NodeId f,
                           const std::vector<bool>& values_by_level) const {
  CTSDD_CHECK_EQ(static_cast<int>(values_by_level.size()), num_levels());
  while (!IsTerminal(f)) {
    const Node& n = nodes_[f];
    f = values_by_level[n.level] ? n.hi : n.lo;
  }
  return f == kTrue;
}

uint64_t ObddManager::CountModels(NodeId f) const {
  CTSDD_CHECK_LE(num_levels(), 63);
  std::unordered_map<NodeId, uint64_t> memo;
  // count(u) = number of models of the subfunction over levels
  // [node(u).level, num_levels).
  std::function<uint64_t(NodeId)> rec = [&](NodeId u) -> uint64_t {
    if (u == kFalse) return 0;
    if (u == kTrue) return 1;
    const auto it = memo.find(u);
    if (it != memo.end()) return it->second;
    const Node& n = nodes_[u];
    const uint64_t lo = rec(n.lo)
                        << (nodes_[n.lo].level - n.level - 1);
    const uint64_t hi = rec(n.hi)
                        << (nodes_[n.hi].level - n.level - 1);
    const uint64_t result = lo + hi;
    memo.emplace(u, result);
    return result;
  };
  return rec(f) << nodes_[f].level;
}

double ObddManager::WeightedModelCount(
    NodeId f, const std::vector<double>& prob_by_level) const {
  std::vector<double> values;
  return BuildWmcTape(f).Evaluate(prob_by_level, &values);
}

WmcTape ObddManager::BuildWmcTape(NodeId f) const {
  return Linearize(
      f, static_cast<uint32_t>(num_levels()),
      [](NodeId u) -> int64_t { return u <= kTrue ? u : -1; },
      [&](NodeId u, const auto& entry_of, WmcTape* tape) {
        const Node& n = nodes_[u];
        const auto level = static_cast<uint32_t>(n.level);
        tape->AddElement(WmcTape::LiteralEntry(level, false), entry_of(n.lo));
        tape->AddElement(WmcTape::LiteralEntry(level, true), entry_of(n.hi));
      });
}

int ObddManager::Size(NodeId f) const {
  std::set<NodeId> seen;
  std::vector<NodeId> stack = {f};
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if (IsTerminal(u) || seen.count(u)) continue;
    seen.insert(u);
    stack.push_back(nodes_[u].lo);
    stack.push_back(nodes_[u].hi);
  }
  return static_cast<int>(seen.size());
}

std::vector<int> ObddManager::LevelProfile(NodeId f) const {
  std::vector<int> profile(num_levels(), 0);
  std::set<NodeId> seen;
  std::vector<NodeId> stack = {f};
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if (IsTerminal(u) || seen.count(u)) continue;
    seen.insert(u);
    ++profile[nodes_[u].level];
    stack.push_back(nodes_[u].lo);
    stack.push_back(nodes_[u].hi);
  }
  return profile;
}

int ObddManager::Width(NodeId f) const {
  const auto profile = LevelProfile(f);
  return profile.empty() ? 0 : *std::max_element(profile.begin(),
                                                 profile.end());
}

}  // namespace ctsdd
