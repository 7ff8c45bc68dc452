// Budgeted, cancellable compilation: the tentpole robustness contract.
//
// An aborted compile must be invisible afterwards: the manager passes its
// structural Validate(), the node-budget overshoot over the pre-compile
// node count is bounded (<= B/16 lease slack),
// and a subsequent compile — budgeted or not — produces the same
// canonical result a never-aborted manager would.
// Randomized over functions, budgets, vtrees, both managers' sequential
// paths and the SDD semantic compiler's parallel path; deadline, cancel,
// and fault-injection trips ride the same unwind.

#include <atomic>
#include <thread>
#include <vector>

#include "exec/task_pool.h"
#include "func/bool_func.h"
#include "gtest/gtest.h"
#include "obdd/obdd.h"
#include "obdd/obdd_compile.h"
#include "sdd/sdd.h"
#include "sdd/sdd_compile.h"
#include "util/budget.h"
#include "util/fault_injection.h"
#include "util/mem_governor.h"
#include "util/random.h"
#include "vtree/vtree.h"

namespace ctsdd {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  return v;
}

// Overshoot ceiling: lease slack (budget / 16, leases are capped at 256).
uint64_t OvershootCeiling(uint64_t budget_nodes) {
  return budget_nodes + budget_nodes / 16;
}

// Interns every literal up front so the budgeted compile under test
// charges only for the nodes it genuinely builds.
void InternLiterals(ObddManager* m, int n) {
  for (int v = 0; v < n; ++v) {
    m->Literal(v, true);
    m->Literal(v, false);
  }
}
void InternLiterals(SddManager* m, int n) {
  for (int v = 0; v < n; ++v) {
    m->Literal(v, true);
    m->Literal(v, false);
  }
}

// --- OBDD ------------------------------------------------------------------

TEST(BudgetAbortTest, ObddSequentialRandomized) {
  Rng rng(20260807);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 12 + static_cast<int>(rng.NextBelow(3));  // 12..14
    ObddManager m(Iota(n));
    InternLiterals(&m, n);
    CompileFuncToObdd(&m, BoolFunc::Random(Iota(n), &rng));
    const int baseline = m.NumNodes();

    const BoolFunc fb = BoolFunc::Random(Iota(n), &rng);
    const uint64_t budget_nodes = 8 + rng.NextBelow(48);
    WorkBudget budget(budget_nodes);
    m.AttachBudget(&budget);
    const auto aborted = CompileFuncToObdd(&m, fb);
    m.DetachBudget();
    ASSERT_EQ(aborted, ObddManager::kAborted) << "budget " << budget_nodes;
    EXPECT_EQ(budget.reason(), StatusCode::kResourceExhausted);
    EXPECT_EQ(budget.status().code(), StatusCode::kResourceExhausted);

    // Sequential charging denies before allocating, so the overshoot
    // bound holds with room to spare.
    EXPECT_LE(static_cast<uint64_t>(m.NumNodes() - baseline),
              OvershootCeiling(budget_nodes));
    const Status valid = m.Validate();
    EXPECT_TRUE(valid.ok()) << valid.ToString();

    // Post-abort compiles are canonical: unbudgeted, repeated, and
    // roomy-budgeted compiles all return one identical root.
    const auto full = CompileFuncToObdd(&m, fb);
    ASSERT_GE(full, 0);
    EXPECT_EQ(CompileFuncToObdd(&m, fb), full);
    WorkBudget roomy(1u << 22);
    m.AttachBudget(&roomy);
    EXPECT_EQ(CompileFuncToObdd(&m, fb), full);
    m.DetachBudget();
    EXPECT_FALSE(roomy.tripped());
    const Status valid_final = m.Validate();
    EXPECT_TRUE(valid_final.ok()) << valid_final.ToString();

    // Semantics survived the abort.
    std::vector<bool> values(n);
    for (int probe = 0; probe < 64; ++probe) {
      const uint32_t index = static_cast<uint32_t>(rng.NextBelow(1u << n));
      for (int i = 0; i < n; ++i) values[i] = (index >> i) & 1;
      EXPECT_EQ(m.Evaluate(full, values), fb.EvalIndex(index));
    }
  }
}

TEST(BudgetAbortTest, ObddDeadlineAndCancel) {
  const int n = 14;
  ObddManager m(Iota(n));
  Rng rng(7);
  const BoolFunc f = BoolFunc::Random(Iota(n), &rng);

  // An already-expired deadline aborts the compile before it can finish.
  WorkBudget expired(0, 1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  m.AttachBudget(&expired);
  EXPECT_EQ(CompileFuncToObdd(&m, f), ObddManager::kAborted);
  m.DetachBudget();
  EXPECT_EQ(expired.reason(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  // A pre-cancelled budget aborts the same way, reporting kCancelled.
  WorkBudget cancelled(0);
  cancelled.Cancel();
  m.AttachBudget(&cancelled);
  EXPECT_EQ(CompileFuncToObdd(&m, f), ObddManager::kAborted);
  m.DetachBudget();
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  // The manager shrugs both off.
  EXPECT_TRUE(m.Validate().ok());
  const auto root = CompileFuncToObdd(&m, f);
  ASSERT_GE(root, 0);
  EXPECT_EQ(CompileFuncToObdd(&m, f), root);
}

// --- SDD -------------------------------------------------------------------

std::vector<Vtree> TestVtrees(int n, Rng* rng) {
  std::vector<Vtree> out;
  out.push_back(Vtree::Balanced(Iota(n)));
  out.push_back(Vtree::RightLinear(Iota(n)));
  out.push_back(Vtree::Random(Iota(n), rng));
  return out;
}

TEST(BudgetAbortTest, SddSequentialRandomized) {
  Rng rng(31337);
  for (int trial = 0; trial < 3; ++trial) {
    const int n = 12 + trial;  // 12..14
    for (Vtree& vt : TestVtrees(n, &rng)) {
      SddManager m(vt);
      InternLiterals(&m, n);
      CompileFuncToSdd(&m, BoolFunc::Random(Iota(n), &rng));
      const int baseline = m.NumNodes();

      const BoolFunc fb = BoolFunc::Random(Iota(n), &rng);
      const uint64_t budget_nodes = 8 + rng.NextBelow(32);
      WorkBudget budget(budget_nodes);
      m.AttachBudget(&budget);
      const auto aborted = CompileFuncToSdd(&m, fb);
      m.DetachBudget();
      ASSERT_EQ(aborted, SddManager::kAborted) << "budget " << budget_nodes;
      EXPECT_EQ(budget.reason(), StatusCode::kResourceExhausted);

      EXPECT_LE(static_cast<uint64_t>(m.NumNodes() - baseline),
                OvershootCeiling(budget_nodes));
      const Status valid = m.Validate();
      EXPECT_TRUE(valid.ok()) << valid.ToString();

      const auto full = CompileFuncToSdd(&m, fb);
      ASSERT_GE(full, 0);
      EXPECT_EQ(CompileFuncToSdd(&m, fb), full);
      WorkBudget roomy(1u << 22);
      m.AttachBudget(&roomy);
      EXPECT_EQ(CompileFuncToSdd(&m, fb), full);
      m.DetachBudget();
      EXPECT_FALSE(roomy.tripped());
      const Status valid_final = m.Validate();
      EXPECT_TRUE(valid_final.ok()) << valid_final.ToString();
      // Semantic + per-root partition invariants both hold.
      EXPECT_TRUE(m.Validate(full).ok());
      EXPECT_EQ(m.ToBoolFunc(full), fb.ExpandTo(Iota(n)));
    }
  }
}

TEST(BudgetAbortTest, SddParallelRandomized) {
  Rng rng(271828);
  exec::TaskPool pool(3);
  for (const int n : {12, 14}) {
    SddManager m(Vtree::Balanced(Iota(n)));
    InternLiterals(&m, n);
    CompileFuncToSdd(&m, BoolFunc::Random(Iota(n), &rng));
    const int baseline = m.NumNodes();

    const BoolFunc fb = BoolFunc::Random(Iota(n), &rng);
    const uint64_t budget_nodes = 8 + rng.NextBelow(32);
    WorkBudget budget(budget_nodes);
    m.AttachBudget(&budget);
    m.AttachExecutor(&pool);
    const auto aborted = CompileFuncToSdd(&m, fb);
    m.AttachExecutor(nullptr);
    m.DetachBudget();
    ASSERT_EQ(aborted, SddManager::kAborted) << "budget " << budget_nodes;
    EXPECT_EQ(budget.reason(), StatusCode::kResourceExhausted);

    // Every slot the aborted compile created is a node: the owning
    // thread allocates them one at a time, so no unused id is left as a
    // hole (a constant-kind slot past the terminals).
    for (int id = baseline; id < m.NumNodes(); ++id) {
      EXPECT_NE(m.node(id).kind, SddManager::Kind::kConst)
          << "hole at " << id;
    }
    EXPECT_LE(static_cast<uint64_t>(m.NumNodes() - baseline),
              OvershootCeiling(budget_nodes));
    const Status valid = m.Validate();
    EXPECT_TRUE(valid.ok()) << valid.ToString();

    // Sequential and parallel post-abort compiles agree pointer-wise.
    const auto seq_root = CompileFuncToSdd(&m, fb);
    ASSERT_GE(seq_root, 0);
    m.AttachExecutor(&pool);
    EXPECT_EQ(CompileFuncToSdd(&m, fb), seq_root);
    m.AttachExecutor(nullptr);
    EXPECT_TRUE(m.Validate().ok());
    EXPECT_EQ(m.ToBoolFunc(seq_root), fb.ExpandTo(Iota(n)));
  }
}

TEST(BudgetAbortTest, SddDeadlineAndCancel) {
  const int n = 14;
  SddManager m(Vtree::Balanced(Iota(n)));
  Rng rng(99);
  const BoolFunc f = BoolFunc::Random(Iota(n), &rng);

  WorkBudget expired(0, 1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  m.AttachBudget(&expired);
  EXPECT_EQ(CompileFuncToSdd(&m, f), SddManager::kAborted);
  m.DetachBudget();
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  WorkBudget cancelled(0);
  cancelled.Cancel();
  m.AttachBudget(&cancelled);
  EXPECT_EQ(CompileFuncToSdd(&m, f), SddManager::kAborted);
  m.DetachBudget();
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  EXPECT_TRUE(m.Validate().ok());
  const auto root = CompileFuncToSdd(&m, f);
  ASSERT_GE(root, 0);
  EXPECT_EQ(CompileFuncToSdd(&m, f), root);
  EXPECT_EQ(m.ToBoolFunc(root), f.ExpandTo(Iota(n)));
}

// --- Apply-path aborts -----------------------------------------------------

TEST(BudgetAbortTest, ObddApplyAbortsMidOperation) {
  Rng rng(5150);
  const int n = 14;
  ObddManager m(Iota(n));
  const BoolFunc fa = BoolFunc::Random(Iota(n), &rng);
  const BoolFunc fb = BoolFunc::Random(Iota(n), &rng);
  const auto a = CompileFuncToObdd(&m, fa);
  const auto b = CompileFuncToObdd(&m, fb);
  const auto expected = m.And(a, b);  // canonical answer, pre-abort
  const int baseline = m.NumNodes();

  WorkBudget tiny(2);
  m.AttachBudget(&tiny);
  const auto aborted = m.Xor(a, b);  // disjoint structure: needs new nodes
  m.DetachBudget();
  ASSERT_EQ(aborted, ObddManager::kAborted);
  EXPECT_LE(static_cast<uint64_t>(m.NumNodes() - baseline),
            OvershootCeiling(2));
  EXPECT_TRUE(m.Validate().ok());
  // The canonical And is reproduced bit-for-bit after the aborted Xor.
  EXPECT_EQ(m.And(a, b), expected);
}

TEST(BudgetAbortTest, SddApplyAbortsMidOperation) {
  Rng rng(6174);
  const int n = 13;
  SddManager m(Vtree::Balanced(Iota(n)));
  const BoolFunc fa = BoolFunc::Random(Iota(n), &rng);
  const BoolFunc fb = BoolFunc::Random(Iota(n), &rng);
  const auto a = CompileFuncToSdd(&m, fa);
  const auto b = CompileFuncToSdd(&m, fb);
  const int baseline = m.NumNodes();

  WorkBudget tiny(2);
  m.AttachBudget(&tiny);
  const auto aborted = m.And(a, m.Not(b) < 0 ? b : m.Not(b));
  m.DetachBudget();
  // Not() itself may abort (negations allocate); either way the manager
  // must be clean and the overshoot bounded.
  if (aborted >= 0) GTEST_SKIP() << "budget did not trip (tiny inputs)";
  EXPECT_LE(static_cast<uint64_t>(m.NumNodes() - baseline),
            OvershootCeiling(2));
  EXPECT_TRUE(m.Validate().ok());
  const auto full = m.And(a, m.Not(b));
  ASSERT_GE(full, 0);
  EXPECT_EQ(m.ToBoolFunc(full),
            (fa.ExpandTo(Iota(n)) & ~fb.ExpandTo(Iota(n))));
}

// Banded 3-clauses (x_i | x_{i+1} | x_{i+2}) over n variables: n - 2
// operands for one wide AndN.
template <class Manager>
std::vector<typename Manager::NodeId> BandedClauses(Manager* m, int n) {
  std::vector<typename Manager::NodeId> clauses;
  for (int i = 0; i + 2 < n; ++i) {
    clauses.push_back(m->OrN({m->Literal(i, true), m->Literal(i + 1, true),
                              m->Literal(i + 2, true)}));
  }
  return clauses;
}

// A wide AndN (past kNaryFoldArity, so the fold along the vtree or the
// order) under a tiny budget aborts inside the fold and unwinds cleanly:
// bounded overshoot, a valid manager, exact memory accounting, and the
// unbudgeted AndN then equals the binary chain.
template <class Manager>
void ExpectWideAndNAbortsCleanly(Manager* m, MemAccount* account, int n) {
  m->AttachMemAccount(account);
  const auto ops = BandedClauses(m, n);
  ASSERT_GT(ops.size(), Manager::kNaryFoldArity);
  const int baseline = m->NumNodes();
  WorkBudget tiny(2);
  m->AttachBudget(&tiny);
  EXPECT_EQ(m->AndN(ops), Manager::kAborted);
  m->DetachBudget();  // debug builds also check the accounting here
  EXPECT_LE(static_cast<uint64_t>(m->NumNodes() - baseline),
            OvershootCeiling(2));
  EXPECT_TRUE(m->Validate().ok());
  EXPECT_EQ(account->bytes(), static_cast<uint64_t>(m->MemoryBytes()));
  auto chain = m->True();
  for (const auto op : ops) chain = m->And(chain, op);
  EXPECT_EQ(m->AndN(ops), chain);
}

TEST(BudgetAbortTest, WideAndNAbortsInsideTheFold) {
  const int n = 32;
  MemAccount obdd_account;  // outlives the manager, which releases into it
  ObddManager obdd(Iota(n));
  ExpectWideAndNAbortsCleanly(&obdd, &obdd_account, n);
  MemAccount sdd_account;
  SddManager sdd(Vtree::Balanced(Iota(n)));
  ExpectWideAndNAbortsCleanly(&sdd, &sdd_account, n);
}

// A wide OrN whose operands are all single conjunctions p_i ∧ s at the
// vtree root, sharing the sub s, is one group: the fold's first apply runs
// inside the group's inner prime disjunction p_0 ∨ ... ∨ p_13, itself a
// fold past kNaryFoldArity, and a tiny budget trips there. The unwind is
// clean, and the unbudgeted OrN then equals the binary chain.
TEST(BudgetAbortTest, WideOrNAbortsInsideAGroupsPrimeFold) {
  const int n = 32;
  MemAccount account;  // outlives the manager, which releases into it
  SddManager m(Vtree::Balanced(Iota(n)));
  m.AttachMemAccount(&account);
  // Balanced over 0..31: the root splits 0..15 from 16..31.
  const auto s = m.AndN({m.Literal(16, true), m.Literal(31, false)});
  std::vector<SddManager::NodeId> primes, ops;
  for (int i = 0; i + 2 < n / 2; ++i) {
    primes.push_back(m.AndN({m.Literal(i, true), m.Literal(i + 1, true),
                             m.Literal(i + 2, false)}));
    ops.push_back(m.And(primes.back(), s));
  }
  ASSERT_GT(primes.size(), SddManager::kNaryFoldArity);
  const int baseline = m.NumNodes();
  WorkBudget tiny(2);
  m.AttachBudget(&tiny);
  EXPECT_EQ(m.OrN(ops), SddManager::kAborted);
  m.DetachBudget();  // debug builds also check the accounting here
  EXPECT_LE(static_cast<uint64_t>(m.NumNodes() - baseline),
            OvershootCeiling(2));
  EXPECT_TRUE(m.Validate().ok());
  EXPECT_EQ(account.bytes(), static_cast<uint64_t>(m.MemoryBytes()));
  auto chain = m.False();
  for (const auto op : ops) chain = m.Or(chain, op);
  EXPECT_EQ(m.OrN(ops), chain);
  EXPECT_EQ(chain, m.And(m.OrN(primes), s));
}

// --- Fault injection -------------------------------------------------------

TEST(FaultInjectionTest, CancelsCompileAtNthAllocation) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const int n = 14;
  ObddManager m(Iota(n));
  Rng rng(1234);
  const BoolFunc f = BoolFunc::Random(Iota(n), &rng);

  WorkBudget budget(0);  // unlimited — only the fault can stop it
  fault::FaultSpec spec;
  spec.fire_at = 40;
  spec.action = [&budget] { budget.Cancel(); };
  fault::Arm("obdd.alloc", spec);
  m.AttachBudget(&budget);
  const auto aborted = CompileFuncToObdd(&m, f);
  m.DetachBudget();
  const uint64_t hits = fault::HitCount("obdd.alloc");
  fault::DisarmAll();
  ASSERT_EQ(aborted, ObddManager::kAborted);
  EXPECT_EQ(budget.status().code(), StatusCode::kCancelled);
  EXPECT_GE(hits, 40u);  // fired at the 40th allocation, then unwound
  EXPECT_TRUE(m.Validate().ok());
  const auto root = CompileFuncToObdd(&m, f);
  ASSERT_GE(root, 0);
}

// The coarse-site registry is live in every build: fire_at fires on the
// exact Nth hit, fire_every on each multiple, independently combinable
// — the cadence that drives "hang a shard every ~200 requests" chaos.
TEST(FaultInjectionTest, PeriodicFiringDrivesChaosCadence) {
  int fired = 0;
  fault::FaultSpec spec;
  spec.fire_at = 2;
  spec.fire_every = 10;
  spec.action = [&fired] { ++fired; };
  fault::Arm("test.periodic", spec);
  for (int i = 0; i < 23; ++i) fault::HitSlow("test.periodic");
  EXPECT_EQ(fault::HitCount("test.periodic"), 23u);
  // Fired at hit 2 (fire_at) and hits 10 and 20 (fire_every).
  EXPECT_EQ(fault::FireCount("test.periodic"), 3u);
  EXPECT_EQ(fired, 3);

  // Re-arming resets the counters.
  fault::FaultSpec every;
  every.fire_every = 5;
  fault::Arm("test.periodic", every);
  for (int i = 0; i < 11; ++i) fault::HitSlow("test.periodic");
  EXPECT_EQ(fault::FireCount("test.periodic"), 2u);  // hits 5 and 10
  fault::DisarmAll();
}

// Cancellation carries its cause: a supervisor failing a hung shard
// cancels with kUnavailable, a fault simulating poison cancels with
// kResourceExhausted, and the unwinding compile reports that code.
TEST(BudgetAbortTest, TypedCancelMapsToTypedStatus) {
  WorkBudget plain(0);
  plain.Cancel();
  EXPECT_TRUE(plain.tripped());
  EXPECT_EQ(plain.status().code(), StatusCode::kCancelled);

  WorkBudget unavailable(0);
  unavailable.Cancel(StatusCode::kUnavailable);
  EXPECT_TRUE(unavailable.tripped());
  EXPECT_EQ(unavailable.reason(), StatusCode::kUnavailable);
  EXPECT_EQ(unavailable.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(unavailable.AcquireLease(16), 0u);  // denied once tripped

  WorkBudget exhausted(0);
  exhausted.Cancel(StatusCode::kResourceExhausted);
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
  // The first reason sticks: a later cancel cannot retype the trip.
  exhausted.Cancel(StatusCode::kCancelled);
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
}

// --- Memory accounting -----------------------------------------------------

// Byte-accurate accounting round-trips: after every compile the
// account's atomic byte counters equal the manager's recomputed
// MemoryBytes() sums. Randomized over functions; halfway through, a pool
// is attached (the SDD semantic compile forks; OBDD ignores the pool).

TEST(MemAccountingTest, ObddRoundTripExactness) {
  Rng rng(20260807);
  exec::TaskPool pool(3);
  for (int trial = 0; trial < 3; ++trial) {
    const int n = 12 + trial;  // 12..14
    MemAccount account;  // outlives the manager, which releases into it
    ObddManager m(Iota(n));
    m.AttachMemAccount(&account);
    ASSERT_EQ(account.bytes(), static_cast<uint64_t>(m.MemoryBytes()));
    for (int round = 0; round < 6; ++round) {
      if (round == 3) m.AttachExecutor(&pool);
      const BoolFunc f = BoolFunc::Random(Iota(n), &rng);
      ASSERT_GE(CompileFuncToObdd(&m, f), 0);
      EXPECT_EQ(account.bytes(), static_cast<uint64_t>(m.MemoryBytes()));
    }
    m.AttachExecutor(nullptr);
    EXPECT_TRUE(m.Validate().ok());
  }
}

TEST(MemAccountingTest, SddRoundTripExactness) {
  Rng rng(20260808);
  exec::TaskPool pool(3);
  for (int trial = 0; trial < 3; ++trial) {
    const int n = 12 + trial;  // 12..14
    MemAccount account;  // outlives the manager, which releases into it
    SddManager m(Vtree::Balanced(Iota(n)));
    m.AttachMemAccount(&account);
    ASSERT_EQ(account.bytes(), static_cast<uint64_t>(m.MemoryBytes()));
    for (int round = 0; round < 6; ++round) {
      if (round == 3) m.AttachExecutor(&pool);
      const BoolFunc f = BoolFunc::Random(Iota(n), &rng);
      ASSERT_GE(CompileFuncToSdd(&m, f), 0);
      EXPECT_EQ(account.bytes(), static_cast<uint64_t>(m.MemoryBytes()));
    }
    m.AttachExecutor(nullptr);
    EXPECT_TRUE(m.Validate().ok());
  }
}

// A governed compile that cannot fit its projected burst under the hard
// ceiling trips typed RESOURCE_EXHAUSTED with the memory-pressure
// marker, before allocating: the ceiling is never breached, the manager
// stays valid, accounting stays exact, and lifting the ceiling makes
// the same compile succeed canonically.
TEST(MemAccountingTest, GovernedDenialIsTypedAndRecoverable) {
  Rng rng(777);
  const int n = 14;
  const BoolFunc f = BoolFunc::Random(Iota(n), &rng);

  ObddManager om(Iota(n));
  MemAccount oacc;
  MemGovernor ogov;
  oacc.SetGovernor(&ogov);
  om.AttachMemAccount(&oacc);
  // Ceiling 64KB above the manager's baseline: room for the mandatory
  // lazy-init floors (memo/cache slot arrays, charged but never denied
  // and covered by the admission slack), yet far below the first
  // reservation's worst-case burst — the compile is denied up front.
  ogov.SetWatermarks(0, oacc.bytes() + (64u << 10));
  WorkBudget obudget(0);
  om.AttachBudget(&obudget);
  ASSERT_EQ(CompileFuncToObdd(&om, f), ObddManager::kAborted);
  om.DetachBudget();
  EXPECT_EQ(obudget.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(obudget.memory_pressure());
  EXPECT_GE(ogov.admit_denials(), 1u);
  EXPECT_EQ(ogov.hard_breaches(), 0u);
  EXPECT_TRUE(om.Validate().ok());
  EXPECT_EQ(oacc.bytes(), static_cast<uint64_t>(om.MemoryBytes()));
  ogov.SetWatermarks(0, 0);  // lift the ceiling
  const auto oroot = CompileFuncToObdd(&om, f);
  ASSERT_GE(oroot, 0);
  EXPECT_EQ(CompileFuncToObdd(&om, f), oroot);  // canonical recompile

  SddManager sm(Vtree::Balanced(Iota(n)));
  MemAccount sacc;
  MemGovernor sgov;
  sacc.SetGovernor(&sgov);
  sm.AttachMemAccount(&sacc);
  sgov.SetWatermarks(0, sacc.bytes() + (64u << 10));
  WorkBudget sbudget(0);
  sm.AttachBudget(&sbudget);
  ASSERT_EQ(CompileFuncToSdd(&sm, f), SddManager::kAborted);
  sm.DetachBudget();
  EXPECT_EQ(sbudget.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(sbudget.memory_pressure());
  EXPECT_GE(sgov.admit_denials(), 1u);
  EXPECT_EQ(sgov.hard_breaches(), 0u);
  EXPECT_TRUE(sm.Validate().ok());
  EXPECT_EQ(sacc.bytes(), static_cast<uint64_t>(sm.MemoryBytes()));
  sgov.SetWatermarks(0, 0);
  const auto sroot = CompileFuncToSdd(&sm, f);
  ASSERT_GE(sroot, 0);
  EXPECT_EQ(CompileFuncToSdd(&sm, f), sroot);
}

// The `mem.reserve` fault site injects a byte-level reservation failure
// into an otherwise roomy governor: the compile aborts exactly as a
// real denial would (typed, marked, clean unwind), deterministically.
TEST(MemAccountingTest, InjectedReservationFailureIsTyped) {
  Rng rng(4321);
  const int n = 13;
  const BoolFunc f = BoolFunc::Random(Iota(n), &rng);
  ObddManager m(Iota(n));
  MemAccount account;
  MemGovernor gov;
  account.SetGovernor(&gov);
  m.AttachMemAccount(&account);
  gov.SetWatermarks(0, 1ull << 30);  // roomy: only the fault can deny

  fault::FaultSpec spec;
  spec.fire_at = 2;  // the second governed reservation fails
  spec.action = [] { MemGovernor::FailNextReservationOnCurrentThread(); };
  fault::Arm("mem.reserve", spec);
  WorkBudget budget(0);
  m.AttachBudget(&budget);
  const auto aborted = CompileFuncToObdd(&m, f);
  m.DetachBudget();
  fault::DisarmAll();
  ASSERT_EQ(aborted, ObddManager::kAborted);
  EXPECT_EQ(budget.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(budget.memory_pressure());
  EXPECT_EQ(gov.injected_denials(), 1u);
  EXPECT_EQ(gov.hard_breaches(), 0u);
  EXPECT_TRUE(m.Validate().ok());
  EXPECT_EQ(account.bytes(), static_cast<uint64_t>(m.MemoryBytes()));
  ASSERT_GE(CompileFuncToObdd(&m, f), 0);
}

TEST(FaultInjectionTest, SddProbabilisticCancelIsDeterministic) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const int n = 13;
  Rng rng(5678);
  const BoolFunc f = BoolFunc::Random(Iota(n), &rng);
  // The same seed must fire at the same hit, so two runs abort with the
  // same manager growth.
  std::vector<int> live_after;
  for (int run = 0; run < 2; ++run) {
    SddManager m(Vtree::Balanced(Iota(n)));
    WorkBudget budget(0);
    fault::FaultSpec spec;
    spec.probability = 0.05;
    spec.seed = 77;
    spec.action = [&budget] { budget.Cancel(); };
    fault::Arm("sdd.alloc", spec);
    m.AttachBudget(&budget);
    const auto result = CompileFuncToSdd(&m, f);
    m.DetachBudget();
    fault::DisarmAll();
    if (result >= 0) {
      live_after.push_back(-1);  // never fired (possible at 5%)
    } else {
      EXPECT_TRUE(m.Validate().ok());
      live_after.push_back(m.NumNodes());
    }
  }
  EXPECT_EQ(live_after[0], live_after[1]);
}

}  // namespace
}  // namespace ctsdd
