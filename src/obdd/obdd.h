// A reduced ordered binary decision diagram (OBDD) package with a shared
// unique table, apply/ite with memoization, model counting, and weighted
// model counting (the probability computation of Section 1).
//
// OBDDs are the linear-vtree special case of SDDs (Section 3.2.2); the
// paper measures functions by OBDD *width* — the largest number of nodes
// labeled by the same variable — which this package reports alongside size.
//
// Storage follows the classic BDD-package layout: nodes live in a chunked
// stable-address store indexed by dense ids (util/node_store.h),
// hash-consed through an open-addressed unique table
// (util/unique_table.h); operation results are memoized in bounded
// computed caches (util/computed_cache.h) that stay fixed-size no matter
// how long the operation sequence runs. Cache eviction can only cost
// recomputation, never change results — canonicity lives in the unique
// table alone.
//
// Every operation runs sequentially on the owning thread, and an attached
// exec/ pool is ignored: forking Ite/AndN/OrN cofactor branches across
// workers lost to the sequential sweep on nearly every measured workload,
// by up to 10x on narrow diagrams (src/README.md, "The parallel
// runtime"), so the manager has no parallel path.

#ifndef CTSDD_OBDD_OBDD_H_
#define CTSDD_OBDD_OBDD_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/computed_cache.h"
#include "util/hashing.h"
#include "util/manager_core.h"
#include "util/node_store.h"
#include "util/scoped_memo.h"
#include "util/status.h"
#include "util/wmc_tape.h"

namespace ctsdd {

// Computed-cache bounds (maximum slot counts; rounded up to powers of
// two — the caches start small and grow under eviction pressure up to the
// bound). Small bounds force eviction and recomputation but never wrong
// results; the apply-core tests exercise exactly that. Namespace-scope
// (not nested) so it can serve as a defaulted constructor argument.
struct ObddOptions {
  size_t ite_cache_slots = 1 << 22;
  size_t nary_cache_slots = 1 << 18;
};

// Node ids, budgets and memory accounting are the shared lifecycle in
// util/manager_core.h.
class ObddManager : public ManagerCore<ObddManager> {
 public:
  using Options = ObddOptions;

  // `var_order[i]` is the global variable id tested at level i.
  explicit ObddManager(std::vector<int> var_order, Options options = {});

  const std::vector<int>& var_order() const { return var_order_; }
  int num_levels() const { return static_cast<int>(var_order_.size()); }
  // Level of a global variable id; -1 if not in the order.
  int LevelOf(int var) const;

  NodeId Literal(int var, bool positive);

  NodeId Not(NodeId f);
  NodeId And(NodeId f, NodeId g);
  NodeId Or(NodeId f, NodeId g);
  NodeId Xor(NodeId f, NodeId g);
  NodeId Ite(NodeId f, NodeId g, NodeId h);

  // Multi-way conjunction/disjunction. Neutral operands are dropped and
  // absorbing terminals short-circuit before any recursion. OrN, and AndN
  // up to kNaryFoldArity operands, cofactor all operands on the smallest
  // live level at once: one sweep instead of a chain of binary applies.
  // Wider AndN folds along the variable order instead, conjoining the
  // operands deepest top level first into one accumulator (the right-
  // linear-vtree case of SddManager::AndN's bucket fold): each step then
  // only touches the levels of the operand it adds, where one sweep would
  // copy, sort and hash the whole operand vector at every level.
  NodeId AndN(std::vector<NodeId> ops);
  NodeId OrN(std::vector<NodeId> ops);

  // Hash-conses the node (level, lo, hi), applying the reduction rule
  // (lo == hi collapses). Both children must already be normalized at
  // deeper levels — the caller asserts the ordering invariant, as in the
  // classic bdd_makenode interface. Compilers that Shannon-expand along
  // the variable order use this to sidestep a full Ite per node.
  NodeId MakeNode(int level, NodeId lo, NodeId hi);

  // Shannon cofactors of f by the level-`level` variable.
  NodeId CofactorLo(NodeId f, int level) const;
  NodeId CofactorHi(NodeId f, int level) const;

  // Restricts f by var := value.
  NodeId Restrict(NodeId f, int var, bool value);

  bool Evaluate(NodeId f, const std::vector<bool>& values_by_level) const;

  // Number of models over the full variable order.
  uint64_t CountModels(NodeId f) const;

  // Probability of f when variable at level i is independently true with
  // probability prob_by_level[i]: builds f's tape and evaluates it once.
  double WeightedModelCount(NodeId f,
                            const std::vector<double>& prob_by_level) const;

  // The WMC tape of f (util/wmc_tape.h) with one weight slot per level:
  // each node becomes the decision {(!x_level, lo), (x_level, hi)}.
  WmcTape BuildWmcTape(NodeId f) const;

  // Reachable node count, terminals excluded.
  int Size(NodeId f) const;

  // Max number of reachable nodes on a single level (OBDD width).
  int Width(NodeId f) const;

  // Nodes per level, for profile plots.
  std::vector<int> LevelProfile(NodeId f) const;

  // Structural self-check: every node is reduced (lo != hi) and level-
  // ordered, its children are in range, and the unique table maps each
  // node to itself (no duplicates, no strays). Used by tests to
  // assert aborted operations left the manager consistent. O(nodes).
  Status Validate() const;

  // Accounted-resident bytes across all instrumented structures (see
  // AttachMemAccount).
  size_t MemoryBytes() const {
    return nodes_.MemoryBytes() + unique_.MemoryBytes() +
           ite_cache_.MemoryBytes() + nary_cache_.MemoryBytes() +
           ite_memo_.MemoryBytes() + nary_memo_.MemoryBytes();
  }

  struct Node {
    int level;  // index into var_order_
    NodeId lo;
    NodeId hi;
  };
  const Node& node(NodeId id) const { return nodes_[id]; }
  bool IsTerminal(NodeId id) const { return id <= 1; }

 private:
  // Two-level memoization, mirroring the SDD apply path: the bounded
  // global caches give cross-operation reuse; exact memos scoped to each
  // top-level operation preserve the polynomial recursion bound even when
  // the lossy caches evict (a lossy cache alone turns deep recursions
  // exponential once the live set outgrows it). Ite and ApplyN nest into
  // each other, so they share one depth counter and reset together when
  // the outermost operation returns.
  NodeId ApplyN(std::vector<NodeId> ops, bool is_and);
  // MakeNode without the owning-thread check, for the recursions.
  NodeId HashCons(int level, NodeId lo, NodeId hi);
  NodeId IteRec(NodeId f, NodeId g, NodeId h);
  NodeId ApplyNRec(std::vector<NodeId> ops, bool is_and);
  // AndN past kNaryFoldArity operands: the fold along the variable order.
  NodeId AndFold(std::vector<NodeId> ops);
  // The unique-table hash of node (level, lo, hi).
  static uint64_t NodeHash(int level, NodeId lo, NodeId hi) {
    return Hash3(static_cast<uint64_t>(level), static_cast<uint64_t>(lo),
                 static_cast<uint64_t>(hi));
  }
  void LeaveOp() {
    if (--op_depth_ == 0) {
      ite_memo_.Reset();
      nary_memo_.Reset();
    }
  }

  struct IteKey {
    NodeId f = 0, g = 0, h = 0;
    bool operator==(const IteKey&) const = default;
  };
  struct NaryKey {
    bool is_and = false;
    std::vector<NodeId> ops;
    bool operator==(const NaryKey&) const = default;
  };

  // Charges one node allocation against the attached budget's lease;
  // false when the budget denies it (the caller returns kAborted before
  // allocating).
  bool Charge() {
    if (budget_lease_ == 0 && !RefillLease(&budget_lease_)) return false;
    --budget_lease_;
    return true;
  }

  // ManagerCore hooks.
  friend class ManagerCore<ObddManager>;
  template <class F>
  void ForEachChild(NodeId id, F&& f) const {
    f(nodes_[id].lo);
    f(nodes_[id].hi);
  }
  void ResetLeases() { budget_lease_ = 0; }
  void AccountStructures(MemAccount* account);

  std::vector<int> var_order_;
  std::unordered_map<int, int> level_of_var_;
  NodeStore<Node> nodes_;
  ComputedCache<IteKey, NodeId> ite_cache_;
  ComputedCache<NaryKey, NodeId> nary_cache_;
  ScopedMemo<IteKey, NodeId> ite_memo_;
  ScopedMemo<NaryKey, NodeId> nary_memo_;
  uint32_t budget_lease_ = 0;  // allocations left in the current lease
};

}  // namespace ctsdd

#endif  // CTSDD_OBDD_OBDD_H_
