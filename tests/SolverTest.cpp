//===- SolverTest.cpp - Solver hot-path optimization tests ----*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// The guarantees the solver speed pass makes and keeps:
//
//  * Histogram::quantile at its edges (the metrics the pass is measured
//    by must themselves be trustworthy): empty histograms, Q = 1.0, and
//    the saturated bucket 64 holding UINT64_MAX.
//  * SmallElemSet behaves exactly like a reference set under randomized
//    operation sequences across the inline -> spilled boundary.
//  * SCC pre-collapse is invisible: the collapsed solver and the
//    LNA_SOLVER_BASELINE=1 uncollapsed solver produce byte-identical
//    diagnostics, annotated programs, lock-analysis reports, stats
//    counters and metrics histograms on every committed fixture,
//    regression reproducer and generated hard module, and identical
//    solutions on constructed cyclic constraint graphs.
//  * Edges added by fired conditionals keep the classes unchanged
//    unless they close a cycle: each shape of fired edge gives the
//    baseline's solutions and CHECK-SAT answers, and an acyclic hard
//    module is solved on its variables, with one Tarjan pass per solve()
//    and no variable merged. Without (Down), recursive helpers put
//    variables on cycles: the merged classes still give the baseline's
//    reports. Budget step charges of whole analyses are pinned.
//  * Intersection feeds go through the per-element holder index: hub
//    components, variables feeding both sides, element operands,
//    unification between rounds, cycle-closing fired edges, backwards
//    scopes and intersections added after a solve all give the
//    baseline's solutions (and, where no conditional fires, CHECK-SAT's
//    answers), and a hard module's probes stay below its propagated
//    elements.
//  * Constraints live in flat logs read through a per-variable view:
//    constraints added after solve(), reaches() or explainReach() are
//    seen by the next call, each variable's edges keep their insertion
//    order (explain witnesses, checksat-visits), and explain paths cross
//    fired edges with the conditional's provenance.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"

#include "corpus/Corpus.h"
#include "effects/ConstraintSystem.h"
#include "effects/SmallElemSet.h"
#include "lang/AstPrinter.h"
#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "obs/Trace.h"
#include "qual/LockAnalysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

using namespace lna;

namespace {

//===----------------------------------------------------------------------===//
// Histogram::quantile edges.
//===----------------------------------------------------------------------===//

TEST(HistogramQuantile, EmptyHistogramIsZeroEverywhere) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.quantile(0.0), 0u);
  EXPECT_EQ(H.quantile(0.5), 0u);
  EXPECT_EQ(H.quantile(1.0), 0u);
}

TEST(HistogramQuantile, QOneClampsToMax) {
  Histogram H;
  for (uint64_t V : {1u, 2u, 3u, 100u})
    H.record(V);
  // Rank 4 lands in the [64,127] bucket whose upper bound (127) must be
  // clamped to the observed max.
  EXPECT_EQ(H.quantile(1.0), 100u);
  // Rank 1 clamps up to the observed min.
  EXPECT_EQ(H.quantile(0.0), 1u);
  // Rank 2 is in the [2,3] bucket: coarse upper bound 3.
  EXPECT_EQ(H.quantile(0.5), 3u);
}

TEST(HistogramQuantile, SingleValueIsEveryQuantile) {
  Histogram H;
  H.record(5);
  EXPECT_EQ(H.quantile(0.0), 5u);
  EXPECT_EQ(H.quantile(0.5), 5u);
  EXPECT_EQ(H.quantile(1.0), 5u);
}

TEST(HistogramQuantile, Bucket64HoldsSaturatedValues) {
  EXPECT_EQ(Histogram::bucketOf(UINT64_MAX), 64u);
  EXPECT_EQ(Histogram::bucketOf(uint64_t(1) << 63), 64u);
  EXPECT_EQ(Histogram::bucketUpperBound(64), UINT64_MAX);
  Histogram H;
  H.record(UINT64_MAX);
  EXPECT_EQ(H.quantile(0.5), UINT64_MAX);
  EXPECT_EQ(H.quantile(1.0), UINT64_MAX);
  // The bucket-64 upper bound still clamps to the observed max.
  Histogram H2;
  H2.record(uint64_t(1) << 63);
  EXPECT_EQ(H2.quantile(1.0), uint64_t(1) << 63);
}

TEST(HistogramQuantile, ZeroAndMaxSpanTheRange) {
  Histogram H;
  H.record(0);
  H.record(UINT64_MAX);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), UINT64_MAX);
  EXPECT_EQ(H.quantile(0.5), 0u);        // rank 1: the zero bucket
  EXPECT_EQ(H.quantile(1.0), UINT64_MAX); // rank 2: bucket 64
}

//===----------------------------------------------------------------------===//
// SmallElemSet equivalence under randomized operations.
//===----------------------------------------------------------------------===//

// Deterministic 64-bit LCG; tests must not depend on std::rand state.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 11;
  }
  uint32_t below(uint32_t N) { return static_cast<uint32_t>(next() % N); }
};

TEST(SmallElemSet, MatchesReferenceSetUnderRandomOps) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Lcg R(Seed * 0x9E3779B97F4A7C15ULL);
    SmallElemSet S;
    std::unordered_set<uint32_t> Ref;
    // Narrow value ranges force collisions and revisit the inline ->
    // spilled boundary; wide ones exercise growth.
    uint32_t Range = Seed % 2 ? 24 : 4096;
    for (int Op = 0; Op < 2000; ++Op) {
      uint32_t V = R.below(Range);
      switch (R.below(8)) {
      case 0: // clear, rarely
        if (R.below(64) == 0) {
          S.clear();
          Ref.clear();
        }
        break;
      case 1: { // probe a random value
        uint32_t P = R.below(Range);
        EXPECT_EQ(S.contains(P), Ref.count(P) != 0);
        break;
      }
      default:
        EXPECT_EQ(S.insert(V), Ref.insert(V).second);
        break;
      }
      ASSERT_EQ(S.size(), Ref.size());
    }
    // Full content check through the iterator.
    std::unordered_set<uint32_t> Seen;
    for (uint32_t E : S) {
      EXPECT_TRUE(Ref.count(E));
      EXPECT_TRUE(Seen.insert(E).second) << "duplicate iteration";
    }
    EXPECT_EQ(Seen.size(), Ref.size());
  }
}

TEST(SmallElemSet, EqualityIsOrderIndependent) {
  Lcg R(42);
  std::vector<uint32_t> Vals;
  for (int I = 0; I < 300; ++I)
    Vals.push_back(R.below(500));
  SmallElemSet A, B;
  for (uint32_t V : Vals)
    A.insert(V);
  for (auto It = Vals.rbegin(); It != Vals.rend(); ++It)
    B.insert(*It);
  EXPECT_TRUE(A == B);
  EXPECT_FALSE(A != B);
  B.insert(100000);
  EXPECT_TRUE(A != B);
}

TEST(SmallElemSet, CopyAndMovePreserveContents) {
  SmallElemSet S;
  for (uint32_t V = 0; V < 100; V += 7)
    S.insert(V);
  SmallElemSet C(S);
  EXPECT_TRUE(C == S);
  SmallElemSet A;
  A.insert(1);
  A = S;
  EXPECT_TRUE(A == S);
  SmallElemSet M(std::move(C));
  EXPECT_TRUE(M == S);
  SmallElemSet M2;
  M2 = std::move(M);
  EXPECT_TRUE(M2 == S);
  // Inline-only copies too (no heap involved).
  SmallElemSet T;
  T.insert(3);
  T.insert(9);
  SmallElemSet T2(T);
  EXPECT_TRUE(T2 == T);
  EXPECT_EQ(T2.size(), 2u);
}

TEST(SmallElemSet, SpillBoundaryIsExact) {
  SmallElemSet S;
  for (uint32_t V = 10; V < 14; ++V) // fills the 4 inline slots
    EXPECT_TRUE(S.insert(V));
  for (uint32_t V = 10; V < 14; ++V) // duplicates never spill
    EXPECT_FALSE(S.insert(V));
  EXPECT_EQ(S.size(), 4u);
  EXPECT_TRUE(S.insert(99)); // 5th distinct element spills to the heap
  EXPECT_EQ(S.size(), 5u);
  for (uint32_t V = 10; V < 14; ++V)
    EXPECT_TRUE(S.contains(V));
  EXPECT_TRUE(S.contains(99));
  EXPECT_FALSE(S.contains(1000));
}

//===----------------------------------------------------------------------===//
// SCC pre-collapse vs the uncollapsed baseline.
//===----------------------------------------------------------------------===//

// Builds the same constraint graph into \p CS: two plain-edge cycles,
// a bridge between them, a dangling chain, and an intersection fed by a
// cycle member -- every shape the collapse must treat differently.
void buildCyclicSystem(LocTable &Locs, ConstraintSystem &CS) {
  std::vector<LocId> L;
  for (int I = 0; I < 6; ++I)
    L.push_back(Locs.fresh());
  std::vector<EffVar> V;
  for (int I = 0; I < 8; ++I)
    V.push_back(CS.makeVar());
  // Cycle 1: v0 -> v1 -> v2 -> v0.
  CS.addEdge(V[0], V[1]);
  CS.addEdge(V[1], V[2]);
  CS.addEdge(V[2], V[0]);
  // Cycle 2: v3 <-> v4.
  CS.addEdge(V[3], V[4]);
  CS.addEdge(V[4], V[3]);
  // Bridge cycle 1 into cycle 2, then a chain v4 -> v5 -> v6.
  CS.addEdge(V[2], V[3]);
  CS.addEdge(V[4], V[5]);
  CS.addEdge(V[5], V[6]);
  // Seeds.
  CS.addElement(EffectKind::Read, L[0], V[0]);
  CS.addElement(EffectKind::Write, L[1], V[1]);
  CS.addElementAllKinds(L[2], V[3]);
  CS.addElement(EffectKind::Alloc, L[3], V[7]);
  // Intersection: (v0 n {read(l0)}) <= v7 (cycle member feeds it).
  CS.addIntersection(InterOperand::var(V[0]),
                     InterOperand::elem(EffectElem(EffectKind::Read, L[0])),
                     V[7]);
}

std::string solutionsToString(const ConstraintSystem &CS, uint32_t NumVars) {
  std::string Out;
  for (uint32_t I = 0; I < NumVars; ++I)
    Out += CS.solutionToString(I) + "\n";
  return Out;
}

TEST(SolverCollapse, CyclicGraphMatchesBaseline) {
  std::string Collapsed, Base;
  {
    unsetenv("LNA_SOLVER_BASELINE");
    LocTable Locs;
    ConstraintSystem CS(Locs);
    buildCyclicSystem(Locs, CS);
    CS.solve();
    Collapsed = solutionsToString(CS, CS.numVars());
    // CHECK-SAT agrees with the solved solution on every seed.
    EXPECT_TRUE(CS.reaches(EffectKind::Read, 0, 6));
    EXPECT_TRUE(CS.reaches(EffectKind::Write, 1, 0));
    EXPECT_FALSE(CS.reaches(EffectKind::Alloc, 3, 0));
  }
  {
    setenv("LNA_SOLVER_BASELINE", "1", 1);
    LocTable Locs;
    ConstraintSystem CS(Locs);
    buildCyclicSystem(Locs, CS);
    CS.solve();
    Base = solutionsToString(CS, CS.numVars());
    EXPECT_TRUE(CS.reaches(EffectKind::Read, 0, 6));
    EXPECT_TRUE(CS.reaches(EffectKind::Write, 1, 0));
    EXPECT_FALSE(CS.reaches(EffectKind::Alloc, 3, 0));
    unsetenv("LNA_SOLVER_BASELINE");
  }
  EXPECT_EQ(Collapsed, Base);
}

TEST(SolverCollapse, CycleMembersShareOneSolution) {
  unsetenv("LNA_SOLVER_BASELINE");
  LocTable Locs;
  ConstraintSystem CS(Locs);
  buildCyclicSystem(Locs, CS);
  CS.solve();
  // v0, v1, v2 sit on one plain-edge cycle: equal least solutions.
  EXPECT_TRUE(CS.solution(0) == CS.solution(1));
  EXPECT_TRUE(CS.solution(1) == CS.solution(2));
  // The cycle's solution flowed into the chain tail.
  for (uint32_t E : CS.solution(0))
    EXPECT_TRUE(CS.solution(6).contains(E));
}

//===----------------------------------------------------------------------===//
// Fired edges leave the classes unchanged unless they close a cycle.
//===----------------------------------------------------------------------===//

/// Counts the solver-condense spans (Tarjan passes) one call records.
template <typename Fn> size_t countCondenseSpans(Fn &&Run) {
  TraceSink Sink;
  {
    TraceScope Scope(Sink);
    Run();
  }
  EXPECT_EQ(Sink.numDropped(), 0u);
  std::string Json = Sink.renderChromeJSON();
  const std::string Needle = "{\"name\":\"solver-condense\"";
  size_t Count = 0;
  for (size_t Pos = Json.find(Needle); Pos != std::string::npos;
       Pos = Json.find(Needle, Pos + 1))
    ++Count;
  return Count;
}

// Twelve variables whose Tarjan components are known:
//
//   v0 -> v1 -> v2 -> v0   one component, index 0
//   v3 -> v4               v4 is index 1, v3 index 2
//   v5 -> v6               v6 is index 3, v5 index 4
//   v7                     index 5: the trigger, seeded with read(T)
//   v8, v9                 indexes 6, 7; (v8 n {read(l3)}) <= v9
//   v10 -> v11             v11 is index 8, v10 index 9
//
// v0..v6 each carry one seed. Each action list in Round1 is one
// conditional testing T in v7, so all of them fire in the first round.
// A nonempty Round2 becomes a conditional testing U in v11, and the
// last Round1 list also puts U in v10: it reaches v11 only through
// propagation, so Round2 fires in the second round.
struct FiredEdgeCase {
  const char *Name;
  std::vector<std::vector<CondAction>> Round1;
  std::vector<CondAction> Round2;
  size_t ExpectedCondenses;
};

void PrintTo(const FiredEdgeCase &Case, std::ostream *OS) { *OS << Case.Name; }

void buildFiredEdgeSystem(LocTable &Locs, ConstraintSystem &CS,
                          const FiredEdgeCase &Case) {
  std::vector<LocId> L;
  for (int I = 0; I < 7; ++I)
    L.push_back(Locs.fresh());
  LocId T = Locs.fresh(), U = Locs.fresh();
  for (int I = 0; I < 12; ++I)
    CS.makeVar();
  for (auto [From, To] : std::vector<std::pair<EffVar, EffVar>>{
           {0, 1}, {1, 2}, {2, 0}, {3, 4}, {5, 6}, {10, 11}})
    CS.addEdge(From, To);
  for (EffVar V = 0; V < 7; ++V)
    CS.addElement(static_cast<EffectKind>(V % 3), L[V], V);
  CS.addElement(EffectKind::Read, T, 7);
  CS.addIntersection(InterOperand::var(8),
                     InterOperand::elem(EffectElem(EffectKind::Read, L[3])),
                     9);
  auto AddConditional = [&](LocId Rho, EffVar Var,
                            std::vector<CondAction> Actions) {
    CondConstraint C;
    C.P = CondConstraint::Premise::LocInVar;
    C.Rho = Rho;
    C.Var = Var;
    C.Actions = CS.addActions(Actions);
    CS.addConditional(std::move(C));
  };
  for (size_t I = 0; I < Case.Round1.size(); ++I) {
    std::vector<CondAction> Actions = Case.Round1[I];
    if (!Case.Round2.empty() && I + 1 == Case.Round1.size())
      Actions.push_back({CondAction::Kind::AddElemAllKinds, U, 10});
    AddConditional(T, 7, std::move(Actions));
  }
  if (!Case.Round2.empty())
    AddConditional(U, 11, Case.Round2);
}

/// Solutions of every variable plus every CHECK-SAT answer, after solving.
std::string firedEdgeOutcome(const FiredEdgeCase &Case, bool Baseline,
                             size_t *Condenses) {
  if (Baseline)
    setenv("LNA_SOLVER_BASELINE", "1", 1);
  else
    unsetenv("LNA_SOLVER_BASELINE");
  LocTable Locs;
  ConstraintSystem CS(Locs);
  unsetenv("LNA_SOLVER_BASELINE");
  buildFiredEdgeSystem(Locs, CS, Case);
  size_t N = countCondenseSpans([&] { CS.solve(); });
  if (Condenses)
    *Condenses = N;
  std::string Out;
  for (EffVar V = 0; V < CS.numVars(); ++V)
    Out += "v" + std::to_string(V) + " " + CS.solutionToString(V) + "\n";
  for (LocId Rho = 0; Rho < Locs.size(); ++Rho)
    for (EffVar V = 0; V < CS.numVars(); ++V)
      for (EffectKind K :
           {EffectKind::Read, EffectKind::Write, EffectKind::Alloc})
        Out += CS.reaches(K, Rho, V) ? '1' : '0';
  return Out + "\n";
}

class SolverFiredEdge : public ::testing::TestWithParam<FiredEdgeCase> {};

TEST_P(SolverFiredEdge, MatchesBaselineAndRebuildsOnlyOnCycles) {
  const FiredEdgeCase &Case = GetParam();
  size_t Condenses = 0;
  std::string Collapsed = firedEdgeOutcome(Case, false, &Condenses);
  std::string Base = firedEdgeOutcome(Case, true, nullptr);
  EXPECT_EQ(Collapsed, Base);
  EXPECT_EQ(Condenses, Case.ExpectedCondenses);
}

using AK = CondAction::Kind;
const FiredEdgeCase FiredEdgeCases[] = {
    // v0 -> v2: both ends in component 0.
    {"InsideOneComponent", {{{AK::AddEdge, 0, 2}}}, {}, 1},
    // v5 -> v4: component 4 to 1, downhill in Tarjan order.
    {"Downhill", {{{AK::AddEdge, 5, 4}}}, {}, 1},
    // v4 -> v8: component 1 to 6, uphill; v8 has no path back. Then
    // l0 enters v3 and must reach v8 by propagation along the fired-list
    // edge; v8 feeds the intersection, which passes read(l3) to v9.
    {"UphillNoPathBack",
     {{{AK::AddEdge, 4, 8}, {AK::AddElemAllKinds, 0, 3}}},
     {},
     1},
    // Round 1 adds v4 -> v5 (uphill, no path back) and v4 -> v8. Round 2
    // adds v6 -> v3, which closes v3 -> v4 -> v5 -> v6 -> v3 through the
    // first fired-list edge: a Tarjan pass merges four classes into one
    // and must re-queue the merged set, since v5's and v6's seeds never
    // flowed along v4 -> v8.
    {"ClosesCycleThroughOverflowEdge",
     {{{AK::AddEdge, 4, 5}, {AK::AddEdge, 4, 8}}},
     {{AK::AddEdge, 6, 3}},
     2},
    // The same edge from several conditionals, as a failed confine?
    // fires its action list from up to four, plus v3 -> v4, which the
    // edge view already has.
    {"RepeatsExistingEdge",
     {{{AK::AddEdge, 5, 4}, {AK::AddEdge, 3, 4}},
      {{AK::AddEdge, 5, 4}, {AK::AddEdge, 3, 4}},
      {{AK::AddEdge, 5, 4}}},
     {},
     1},
};

INSTANTIATE_TEST_SUITE_P(
    Shapes, SolverFiredEdge, ::testing::ValuesIn(FiredEdgeCases),
    [](const ::testing::TestParamInfo<FiredEdgeCase> &Info) {
      return std::string(Info.param.Name);
    });

//===----------------------------------------------------------------------===//
// Intersection feeds through the holder index.
//===----------------------------------------------------------------------===//

// Each shape builds and solves one system and returns the variables
// whose solved sets CHECK-SAT must reproduce: none where a conditional
// fires, since CHECK-SAT ignores conditionals.
using HolderShape = std::vector<EffVar> (*)(LocTable &, ConstraintSystem &);

std::vector<EffVar> allVars(const ConstraintSystem &CS) {
  std::vector<EffVar> Vs(CS.numVars());
  for (EffVar V = 0; V < CS.numVars(); ++V)
    Vs[V] = V;
  return Vs;
}

// A globals-environment-like hub H and a shared type variable T both sit
// in the visible union of 120 (Down)-style intersections
// (body_F n (H u T u param_F)) <= latent_F. The worklist pops the
// last-seeded component first, so elements reach H both before the
// bodies flush (from a variable created after them) and after (from one
// created before them and from H's own seeds); bodies get elements
// directly and, for two of them, through H.
constexpr EffVar hubLatent(uint32_t F) { return 5 + 3 * F; }

std::vector<EffVar> hubShape(LocTable &Locs, ConstraintSystem &CS) {
  std::vector<LocId> L;
  for (int I = 0; I < 40; ++I)
    L.push_back(Locs.fresh());
  EffVar H = CS.makeVar(), T = CS.makeVar(), Early = CS.makeVar();
  CS.addEdge(Early, H);
  for (int I = 0; I < 10; ++I)
    CS.addElementAllKinds(L[30 + I], Early);
  for (int I = 0; I < 20; ++I)
    CS.addElementAllKinds(L[I], H);
  for (int I = 0; I < 40; I += 3)
    CS.addElement(EffectKind::Write, L[I], T);
  std::vector<EffVar> Bodies;
  for (uint32_t F = 0; F < 120; ++F) {
    EffVar Body = CS.makeVar(), Param = CS.makeVar(), Latent = CS.makeVar();
    assert(Latent == hubLatent(F));
    Bodies.push_back(Body);
    CS.addElement(static_cast<EffectKind>(F % 3), L[F % 40], Body);
    CS.addElement(EffectKind::Write, L[(F * 7) % 40], Body);
    if (F % 5 == 0)
      CS.addElement(EffectKind::Read, L[F % 40], Param);
    CS.addIntersection(InterOperand::var(Body),
                       InterOperand::varUnion({H, T, Param}), Latent);
  }
  CS.addEdge(H, Bodies[0]);
  CS.addEdge(H, Bodies[1]);
  EffVar Late = CS.makeVar();
  CS.addEdge(Late, H);
  for (int I = 20; I < 30; ++I)
    CS.addElementAllKinds(L[I], Late);
  return allVars(CS);
}

// One variable on both sides of an intersection, directly and through
// a union, plus a component (a two-variable cycle) doing the same.
std::vector<EffVar> bothSidesShape(LocTable &Locs, ConstraintSystem &CS) {
  LocId A = Locs.fresh(), B = Locs.fresh(), C = Locs.fresh();
  EffVar V = CS.makeVar(), W = CS.makeVar(), Out1 = CS.makeVar(),
         Out2 = CS.makeVar(), P = CS.makeVar(), Q = CS.makeVar(),
         Out3 = CS.makeVar();
  CS.addElementAllKinds(A, V);
  CS.addElement(EffectKind::Read, B, W);
  CS.addElement(EffectKind::Read, B, V);
  CS.addIntersection(InterOperand::var(V), InterOperand::var(V), Out1);
  CS.addIntersection(InterOperand::var(V), InterOperand::varUnion({W, V}),
                     Out2);
  CS.addEdge(P, Q);
  CS.addEdge(Q, P);
  CS.addElement(EffectKind::Write, C, P);
  CS.addIntersection(InterOperand::var(Q), InterOperand::varUnion({W, P}),
                     Out3);
  return allVars(CS);
}

// Element operands: on either side, against a variable and a union, and
// a constant intersection of two elements.
std::vector<EffVar> elemOperandShape(LocTable &Locs, ConstraintSystem &CS) {
  LocId A = Locs.fresh(), B = Locs.fresh();
  EffVar V = CS.makeVar(), W = CS.makeVar(), Out1 = CS.makeVar(),
         Out2 = CS.makeVar(), Out3 = CS.makeVar(), Out4 = CS.makeVar();
  CS.addElementAllKinds(A, V);
  CS.addElement(EffectKind::Write, B, W);
  CS.addIntersection(InterOperand::var(V),
                     InterOperand::elem(EffectElem(EffectKind::Read, A)),
                     Out1);
  CS.addIntersection(InterOperand::elem(EffectElem(EffectKind::Write, B)),
                     InterOperand::varUnion({V, W}), Out2);
  CS.addIntersection(InterOperand::elem(EffectElem(EffectKind::Alloc, A)),
                     InterOperand::elem(EffectElem(EffectKind::Alloc, A)),
                     Out3);
  // A variable that feeds an element-operand intersection and a hub-like
  // union one.
  CS.addIntersection(InterOperand::var(W), InterOperand::varUnion({V, W}),
                     Out4);
  return allVars(CS);
}

// Unification between rounds changes element keys: read(X) in A and
// read(Y) in B meet only once X = Y, which fires in round 1 (both
// unification directions). A round-2 conditional needs the intersection
// output, and its action feeds a second intersection through the hub.
std::vector<EffVar> unifyShape(LocTable &Locs, ConstraintSystem &CS) {
  LocId X = Locs.fresh(), Y = Locs.fresh(), Z = Locs.fresh(),
        W = Locs.fresh(), T = Locs.fresh(), U = Locs.fresh();
  EffVar A = CS.makeVar(), B = CS.makeVar(), Out = CS.makeVar(),
         Trigger = CS.makeVar(), Hub = CS.makeVar(), C = CS.makeVar(),
         Out2 = CS.makeVar(), D = CS.makeVar(), Out3 = CS.makeVar();
  CS.addElement(EffectKind::Read, X, A);
  CS.addElement(EffectKind::Read, Y, B);
  CS.addElement(EffectKind::Write, W, A);
  CS.addElement(EffectKind::Write, Z, Hub);
  CS.addElement(EffectKind::Read, U, D);
  CS.addElement(EffectKind::Read, T, Trigger);
  CS.addIntersection(InterOperand::var(A), InterOperand::var(B), Out);
  CS.addIntersection(InterOperand::var(C), InterOperand::varUnion({Hub, B}),
                     Out2);
  CS.addIntersection(InterOperand::var(D), InterOperand::varUnion({Hub, A}),
                     Out3);
  CondConstraint C1;
  C1.P = CondConstraint::Premise::LocInVar;
  C1.Rho = T;
  C1.Var = Trigger;
  C1.Actions = CS.addActions({{CondAction::Kind::UnifyLocs, X, Y},
                              {CondAction::Kind::UnifyLocs, W, Z}});
  CS.addConditional(std::move(C1));
  CondConstraint C2;
  C2.P = CondConstraint::Premise::LocInVar;
  C2.Rho = Y;
  C2.Var = Out;
  C2.Actions = CS.addActions({{CondAction::Kind::AddElemAllKinds, Z, C},
                              {CondAction::Kind::UnifyLocs, U, X}});
  CS.addConditional(std::move(C2));
  CS.solve();
  return {};
}

// A cycle-closing fired edge merges a holder's component: P -> Q holds
// read(l) and feeds a 30-way hub union, then Q -> P fires, and elements
// added in the same firing must meet the merged component's feeds.
std::vector<EffVar> mergeHolderShape(LocTable &Locs, ConstraintSystem &CS) {
  LocId L0 = Locs.fresh(), L1 = Locs.fresh(), T = Locs.fresh();
  EffVar P = CS.makeVar(), Q = CS.makeVar(), R = CS.makeVar(),
         Trigger = CS.makeVar();
  CS.addEdge(P, Q);
  CS.addElement(EffectKind::Read, L0, P);
  CS.addElement(EffectKind::Read, T, Trigger);
  for (int I = 0; I < 30; ++I) {
    EffVar Body = CS.makeVar(), Out = CS.makeVar();
    CS.addElement(EffectKind::Read, I % 2 ? L0 : L1, Body);
    CS.addIntersection(InterOperand::var(Body),
                       InterOperand::varUnion({I % 3 ? Q : P, R}), Out);
  }
  EffVar Out = CS.makeVar();
  CS.addIntersection(InterOperand::var(Q), InterOperand::var(R), Out);
  CondConstraint C;
  C.P = CondConstraint::Premise::LocInVar;
  C.Rho = T;
  C.Var = Trigger;
  C.Actions = CS.addActions({{CondAction::Kind::AddEdge, Q, P},
                             {CondAction::Kind::AddElemAllKinds, L1, Q},
                             {CondAction::Kind::AddElemReadWrite, L0, R}});
  CS.addConditional(std::move(C));
  CS.solve();
  return {};
}

// Backwards scope: only what reaches the query variables is solved.
std::vector<EffVar> scopeShape(LocTable &Locs, ConstraintSystem &CS) {
  hubShape(Locs, CS);
  std::vector<EffVar> Query = {hubLatent(1), hubLatent(7)};
  CS.solve(Query);
  return Query;
}

// An intersection added after a solve: its variable operand flushed
// read(l) before it fed anything, and its other side flushes it only in
// the second solve.
std::vector<EffVar> lateIntersectionShape(LocTable &Locs,
                                          ConstraintSystem &CS) {
  LocId L = Locs.fresh();
  EffVar A = CS.makeVar(), Pre = CS.makeVar();
  CS.addElementAllKinds(L, A);
  CS.addEdge(A, Pre);
  CS.solve();
  EffVar B = CS.makeVar(), Out = CS.makeVar();
  CS.addElement(EffectKind::Read, L, B);
  CS.addIntersection(InterOperand::var(B), InterOperand::var(A), Out);
  return allVars(CS);
}

struct HolderCase {
  const char *Name;
  HolderShape Build;
  bool SolvesItself;
};

void PrintTo(const HolderCase &Case, std::ostream *OS) { *OS << Case.Name; }

/// Solutions of every variable after solving, with the shape's CHECK-SAT
/// cross-check; \p Probes receives the intersection-probe count.
std::string holderOutcome(const HolderCase &Case, bool Baseline,
                          uint64_t *Probes) {
  if (Baseline)
    setenv("LNA_SOLVER_BASELINE", "1", 1);
  LocTable Locs;
  ConstraintSystem CS(Locs);
  unsetenv("LNA_SOLVER_BASELINE");
  std::vector<EffVar> CheckVars = Case.Build(Locs, CS);
  if (!Case.SolvesItself)
    CS.solve();
  *Probes = CS.stats().InterProbes;
  std::string Out;
  for (EffVar V = 0; V < CS.numVars(); ++V)
    Out += "v" + std::to_string(V) + " " + CS.solutionToString(V) + "\n";
  // CHECK-SAT answers every (element, variable) query the solved sets
  // answer.
  for (EffVar V : CheckVars)
    for (LocId Rho = 0; Rho < Locs.size(); ++Rho)
      for (EffectKind K :
           {EffectKind::Read, EffectKind::Write, EffectKind::Alloc})
        EXPECT_EQ(CS.reaches(K, Rho, V), CS.member(K, Rho, V))
            << Case.Name << (Baseline ? " baseline" : "") << ": v" << V
            << " rho" << Rho << " kind " << static_cast<int>(K);
  return Out;
}

class SolverHolderIndex : public ::testing::TestWithParam<HolderCase> {};

TEST_P(SolverHolderIndex, MatchesBaselineAndCheckSat) {
  uint64_t Probes = 0, BaselineProbes = 0;
  std::string Indexed = holderOutcome(GetParam(), false, &Probes);
  std::string Base = holderOutcome(GetParam(), true, &BaselineProbes);
  EXPECT_EQ(Indexed, Base);
}

const HolderCase HolderCases[] = {
    {"Hub", hubShape, false},
    {"VariableFeedsBothSides", bothSidesShape, false},
    {"ElementOperand", elemOperandShape, false},
    {"UnifyChangesKeysBetweenRounds", unifyShape, true},
    {"CycleClosingEdgeMergesHolder", mergeHolderShape, true},
    {"BackwardsScope", scopeShape, true},
    {"IntersectionAddedAfterSolve", lateIntersectionShape, false},
};

INSTANTIATE_TEST_SUITE_P(
    Shapes, SolverHolderIndex, ::testing::ValuesIn(HolderCases),
    [](const ::testing::TestParamInfo<HolderCase> &Info) {
      return std::string(Info.param.Name);
    });

TEST(SolverHolderIndexHub, FlushesProbeOnlyHeldElements) {
  // The hub's 120 feeds are probed only for elements some body already
  // holds, not once per feed for every element the hub flushes.
  uint64_t Probes = 0, BaselineProbes = 0;
  HolderCase Hub{"Hub", hubShape, false};
  EXPECT_EQ(holderOutcome(Hub, false, &Probes),
            holderOutcome(Hub, true, &BaselineProbes));
  EXPECT_LT(Probes * 10, BaselineProbes)
      << Probes << " probes vs " << BaselineProbes << " in the baseline";
}

//===----------------------------------------------------------------------===//
// Baseline-vs-optimized byte identity over the committed fixtures and
// generated hard modules.
//===----------------------------------------------------------------------===//

// Everything user-visible one analysis produces, rendered to a string:
// success/failure, diagnostics, the annotated program, stats counters,
// metrics histograms, and the lock report under both update regimes, in
// both pipeline modes. The two counters that measure solver work at its
// own granularity (propagated-elems, checksat-visits: per variable in the
// baseline, per class when collapsed) are left out.
//
// \p Collapsed, when non-null, receives the most variables any of the
// runs folded into another's class.
std::string analysisFingerprint(const std::string &Source,
                                bool ApplyDown = true,
                                uint64_t *Collapsed = nullptr) {
  auto SolverGranular = [](const std::string &Name) {
    return Name == "propagated-elems" || Name == "checksat-visits";
  };
  std::string F;
  for (int Mode = 0; Mode < 2; ++Mode) {
    PipelineOptions Opts;
    Opts.Mode = Mode ? PipelineMode::CheckAnnotations : PipelineMode::Infer;
    Opts.ApplyDown = ApplyDown;
    AnalysisSession S(Opts);
    MetricsRegistry Metrics;
    bool Ok;
    {
      MetricsScope Scope(Metrics);
      Ok = S.run(Source);
    }
    F += Mode ? "[check]\n" : "[infer]\n";
    F += Ok ? "ok\n" : "failed\n";
    F += S.diags().render();
    if (S.failure())
      F += S.failure()->Phase + ": " + S.failure()->Message + "\n";
    for (const PhaseStats &P : S.stats().phases())
      for (const auto &[Name, Value] : P.Counters)
        if (!SolverGranular(Name))
          F += P.Name + "/" + Name + " " + std::to_string(Value) + "\n";
    for (const auto &[Name, H] : Metrics.histograms()) {
      if (SolverGranular(Name))
        continue;
      F += Name + " n=" + std::to_string(H.count()) +
           " sum=" + std::to_string(H.sum()) +
           " min=" + std::to_string(H.min()) +
           " max=" + std::to_string(H.max()) + " buckets";
      for (unsigned B = 0; B < Histogram::NumBuckets; ++B)
        if (H.buckets()[B])
          F += " " + std::to_string(B) + ":" + std::to_string(H.buckets()[B]);
      F += "\n";
    }
    if (S.hasResult() && Collapsed)
      *Collapsed = std::max<uint64_t>(
          *Collapsed, S.result().State->CS.stats().CollapsedVars);
    if (S.hasResult()) {
      AstPrinter P(S.context());
      F += P.print(S.result().Analyzed);
      for (int Strong = 0; Strong < 2; ++Strong) {
        LockAnalysisOptions LO;
        LO.AllStrong = Strong != 0;
        LockAnalysisResult LR = analyzeLocks(S.context(), S.result(), LO);
        F += "locks/" + std::to_string(Strong) + ": " +
             std::to_string(LR.numErrors()) + "\n";
        for (const LockError &E : LR.Errors)
          F += "  " + std::to_string(E.Loc.Line) + ":" +
               std::to_string(E.Loc.Col) + (E.IsAcquire ? " acquire" : " release") +
               "\n";
      }
    }
  }
  return F;
}

class SolverIdentityCorpus : public ::testing::TestWithParam<std::string> {};

TEST_P(SolverIdentityCorpus, BaselineAndCollapsedReportsAreIdentical) {
  std::ifstream In(GetParam());
  ASSERT_TRUE(In.good()) << "cannot open " << GetParam();
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Source = Buf.str();

  unsetenv("LNA_SOLVER_BASELINE");
  std::string Optimized = analysisFingerprint(Source);
  setenv("LNA_SOLVER_BASELINE", "1", 1);
  std::string Baseline = analysisFingerprint(Source);
  unsetenv("LNA_SOLVER_BASELINE");

  EXPECT_EQ(Optimized, Baseline) << GetParam();
}

// The (Down)-off leg: without (Down), effects cycle through recursive
// calls, so the collapsed solver merges classes.
TEST_P(SolverIdentityCorpus,
       BaselineAndCollapsedReportsAreIdenticalWithoutDown) {
  std::ifstream In(GetParam());
  ASSERT_TRUE(In.good()) << "cannot open " << GetParam();
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Source = Buf.str();

  unsetenv("LNA_SOLVER_BASELINE");
  std::string Optimized = analysisFingerprint(Source, false);
  setenv("LNA_SOLVER_BASELINE", "1", 1);
  std::string Baseline = analysisFingerprint(Source, false);
  unsetenv("LNA_SOLVER_BASELINE");

  EXPECT_EQ(Optimized, Baseline) << GetParam();
}

std::vector<std::string> identityFiles() {
  std::vector<std::string> Files;
  for (const char *Dir : {LNA_SOLVER_REGRESSION_DIR, LNA_SOLVER_FIXTURE_DIR})
    for (const auto &Entry : std::filesystem::directory_iterator(Dir))
      if (Entry.path().extension() == ".lna")
        Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::string identityName(const ::testing::TestParamInfo<std::string> &Info) {
  std::string Stem = std::filesystem::path(Info.param).stem().string();
  for (char &C : Stem)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Stem;
}

INSTANTIATE_TEST_SUITE_P(Fixtures, SolverIdentityCorpus,
                         ::testing::ValuesIn(identityFiles()), identityName);

// The committed fixtures are too small to fire many AddEdge actions;
// generated hard modules fire hundreds (one per failed confine?). A large
// clean module has many functions whose (Down) intersections share the
// globals environment: the holder index's hub case.
struct GeneratedModule {
  ModuleCategory Category;
  uint64_t Seed;
  uint32_t Size;
};

// The instantiation name carries the category and size; the value
// printed (and so the test name) is the seed.
void PrintTo(const GeneratedModule &M, std::ostream *OS) { *OS << M.Seed; }

class SolverIdentityGenerated
    : public ::testing::TestWithParam<GeneratedModule> {};

TEST_P(SolverIdentityGenerated, BaselineAndCollapsedReportsAreIdentical) {
  const GeneratedModule &M = GetParam();
  std::string Source = generateModule(M.Category, M.Seed, M.Size).Source;
  unsetenv("LNA_SOLVER_BASELINE");
  std::string Optimized = analysisFingerprint(Source);
  setenv("LNA_SOLVER_BASELINE", "1", 1);
  std::string Baseline = analysisFingerprint(Source);
  unsetenv("LNA_SOLVER_BASELINE");
  EXPECT_NE(Optimized.find("inference/cond-firings"), std::string::npos);
  EXPECT_EQ(Optimized, Baseline);
}

INSTANTIATE_TEST_SUITE_P(Hard200, SolverIdentityGenerated,
                         ::testing::Values(
                             GeneratedModule{ModuleCategory::Hard, 1, 200},
                             GeneratedModule{ModuleCategory::Hard, 2, 200},
                             GeneratedModule{ModuleCategory::Hard, 3, 200}));
INSTANTIATE_TEST_SUITE_P(Clean400, SolverIdentityGenerated,
                         ::testing::Values(GeneratedModule{
                             ModuleCategory::Clean, 1, 400}));

// The (Down)-off leg on clean modules, whose recursive helpers put
// effect variables on cycles: the collapsed solver must really merge
// classes (a fired edge can merge more), and still match the baseline.
class SolverIdentityGeneratedWithoutDown
    : public ::testing::TestWithParam<GeneratedModule> {};

TEST_P(SolverIdentityGeneratedWithoutDown, MergesCyclesAndMatchesBaseline) {
  const GeneratedModule &M = GetParam();
  std::string Source = generateModule(M.Category, M.Seed, M.Size).Source;
  unsetenv("LNA_SOLVER_BASELINE");
  uint64_t Collapsed = 0;
  std::string Optimized = analysisFingerprint(Source, false, &Collapsed);
  setenv("LNA_SOLVER_BASELINE", "1", 1);
  std::string Baseline = analysisFingerprint(Source, false);
  unsetenv("LNA_SOLVER_BASELINE");
  EXPECT_GT(Collapsed, 0u);
  EXPECT_NE(Optimized.find("inference/cond-firings"), std::string::npos);
  EXPECT_EQ(Optimized, Baseline);
}

INSTANTIATE_TEST_SUITE_P(
    CleanRecursive, SolverIdentityGeneratedWithoutDown,
    ::testing::Values(GeneratedModule{ModuleCategory::Clean, 1, 400},
                      GeneratedModule{ModuleCategory::Clean, 2, 400},
                      GeneratedModule{ModuleCategory::Clean, 3, 200}));

TEST(SolverFiredEdgeRegression, AcyclicHardModuleSolvesOnItsVariables) {
  // With (Down) on no plain-edge cycle exists, so the solver must work
  // on the variables themselves: one Tarjan pass per solve, no variable
  // folded into another's class (no leader map, no member chains, no
  // component graph), and no pass for any of the hundreds of edges that
  // failed confine? candidates fire.
  unsetenv("LNA_SOLVER_BASELINE");
  std::string Source = generateModule(ModuleCategory::Hard, 7, 200).Source;
  AnalysisSession S(PipelineOptions{});
  size_t Condenses = countCondenseSpans([&] { ASSERT_TRUE(S.run(Source)); });
  EXPECT_GT(S.stats().counter("inference", "cond-firings"), 100u);
  EXPECT_EQ(Condenses, 1u);
  EXPECT_EQ(S.result().State->CS.stats().CollapsedVars, 0u);
}

TEST(SolverBudget, WholeAnalysisStepChargesArePinned) {
  // --max-steps verdicts depend on these charges, which depend on the
  // solver's worklist order, batch sizes and CHECK-SAT pops. The clean
  // module merges 427 variables without (Down); the baseline never
  // merges, so it pops more.
  struct Case {
    ModuleCategory Category;
    uint64_t Seed;
    uint32_t Size;
    bool ApplyDown;
    PipelineMode Mode;
    bool Baseline;
    uint64_t Steps;
  };
  const Case Cases[] = {
      {ModuleCategory::Hard, 7, 200, true, PipelineMode::Infer, false, 47732},
      {ModuleCategory::Hard, 7, 200, false, PipelineMode::Infer, false, 49210},
      {ModuleCategory::Hard, 7, 200, true, PipelineMode::CheckAnnotations,
       false, 3057},
      {ModuleCategory::Clean, 1, 400, false, PipelineMode::Infer, false, 62464},
      {ModuleCategory::Clean, 1, 400, false, PipelineMode::Infer, true, 66368},
  };
  for (const Case &C : Cases) {
    if (C.Baseline)
      setenv("LNA_SOLVER_BASELINE", "1", 1);
    PipelineOptions Opts;
    Opts.Mode = C.Mode;
    Opts.ApplyDown = C.ApplyDown;
    Opts.Limits.MaxSteps = uint64_t(1) << 40;
    AnalysisSession S(Opts);
    bool Ok = S.run(generateModule(C.Category, C.Seed, C.Size).Source);
    unsetenv("LNA_SOLVER_BASELINE");
    ASSERT_TRUE(Ok);
    EXPECT_EQ(S.budget().steps(), C.Steps)
        << "seed " << C.Seed << " size " << C.Size
        << (C.ApplyDown ? "" : " without (Down)")
        << (C.Baseline ? " baseline" : "");
  }
}

TEST(SolverHolderIndexRegression, HardModuleProbesBelowPropagatedElems) {
  // Regression: every element reaching the globals environment or a
  // shared type variable probed the body set of every function whose
  // (Down) intersection it feeds -- over 13 million probes for fewer
  // than 50,000 propagated elements on a 160 KB hard module.
  unsetenv("LNA_SOLVER_BASELINE");
  std::string Source = generateModule(ModuleCategory::Hard, 5, 800).Source;
  AnalysisSession S(PipelineOptions{});
  ASSERT_TRUE(S.run(Source));
  const SolverStats &SS = S.result().State->CS.stats();
  EXPECT_GT(SS.InterProbes, 0u);
  EXPECT_LE(SS.InterProbes, SS.PropagatedElems);
}

//===----------------------------------------------------------------------===//
// Flat constraint logs and the per-variable view.
//===----------------------------------------------------------------------===//

/// A constraint system built in the mode the test asks for; the
/// environment is restored before any constraint is added.
struct ModeSystem {
  LocTable Locs;
  std::unique_ptr<ConstraintSystem> CS;
  explicit ModeSystem(bool Baseline) {
    if (Baseline)
      setenv("LNA_SOLVER_BASELINE", "1", 1);
    else
      unsetenv("LNA_SOLVER_BASELINE");
    CS = std::make_unique<ConstraintSystem>(Locs);
    unsetenv("LNA_SOLVER_BASELINE");
  }
};

/// Every CHECK-SAT answer and explain path of \p CS, rendered.
std::string queryOutcome(const ConstraintSystem &CS, const LocTable &Locs) {
  std::string Out;
  for (LocId Rho = 0; Rho < Locs.size(); ++Rho)
    for (EffVar V = 0; V < CS.numVars(); ++V)
      for (EffectKind K :
           {EffectKind::Read, EffectKind::Write, EffectKind::Alloc}) {
        bool Reaches = CS.reaches(K, Rho, V);
        std::vector<ExplainStep> Path = CS.explainReach(K, Rho, V);
        EXPECT_EQ(Reaches, !Path.empty())
            << "rho" << Rho << " v" << V << " kind " << static_cast<int>(K);
        Out += Reaches ? '1' : '0';
        Out += renderConstraintPath(Path);
      }
  return Out;
}

std::string solvedOutcome(ConstraintSystem &CS) {
  CS.solve();
  std::string Out;
  for (EffVar V = 0; V < CS.numVars(); ++V)
    Out += "v" + std::to_string(V) + " " + CS.solutionToString(V) + "\n";
  return Out;
}

// The first batch: v0 -> v1 -> v2, read(l0) in v0, alloc(l2) in v3.
// With \p AllVars it also creates v4 and v5, which only the second
// batch uses, so that batch grows the logs but not the variable count.
void buildFirstBatch(ModeSystem &M, bool AllVars) {
  ConstraintSystem &CS = *M.CS;
  for (int I = 0; I < 3; ++I)
    M.Locs.fresh();
  for (int I = 0; I < (AllVars ? 6 : 4); ++I)
    CS.makeVar();
  CS.setOrigin({1, 1}, "first batch");
  CS.addEdge(0, 1);
  CS.addEdge(1, 2);
  CS.addElement(EffectKind::Read, 0, 0);
  CS.addElement(EffectKind::Alloc, 2, 3);
}

// The second batch touches every log: edges out of v2, v3 and v4 (one
// closing a cycle), a seed on v2, and an intersection fed by v1.
void buildSecondBatch(ModeSystem &M, bool AllVars) {
  ConstraintSystem &CS = *M.CS;
  EffVar V4 = AllVars ? 4 : CS.makeVar(), V5 = AllVars ? 5 : CS.makeVar();
  CS.setOrigin({2, 1}, "second batch");
  CS.addEdge(2, V4);
  CS.addEdge(V4, 1);
  CS.addEdge(3, V5);
  CS.addElement(EffectKind::Write, 1, 2);
  CS.addIntersection(InterOperand::var(1),
                     InterOperand::elem(EffectElem(EffectKind::Read, 0)), 3);
}

enum class FirstCall { Solve, Reaches, Explain };

/// Builds the first batch, runs \p First, adds the second batch, then
/// returns the solutions and every query answer.
std::string incrementalOutcome(FirstCall First, bool AllVars, bool Baseline) {
  ModeSystem M(Baseline);
  M.CS->enableOriginTracking();
  buildFirstBatch(M, AllVars);
  switch (First) {
  case FirstCall::Solve:
    M.CS->solve();
    break;
  case FirstCall::Reaches:
    EXPECT_TRUE(M.CS->reaches(EffectKind::Read, 0, 2));
    break;
  case FirstCall::Explain:
    EXPECT_EQ(M.CS->explainReach(EffectKind::Read, 0, 2).size(), 3u);
    break;
  }
  buildSecondBatch(M, AllVars);
  std::string Queries = queryOutcome(*M.CS, M.Locs);
  return solvedOutcome(*M.CS) + Queries;
}

TEST(SolverFlatLogs, ConstraintsAddedAfterAQueryAreSeenByTheNext) {
  // The reference: both batches added before any query.
  ModeSystem Fresh(false);
  Fresh.CS->enableOriginTracking();
  buildFirstBatch(Fresh, true);
  buildSecondBatch(Fresh, true);
  std::string Queries = queryOutcome(*Fresh.CS, Fresh.Locs);
  std::string Expected = solvedOutcome(*Fresh.CS) + Queries;
  // Spot checks that the second batch matters to the answers.
  EXPECT_TRUE(Fresh.CS->member(EffectKind::Read, 0, 3));  // intersection
  EXPECT_TRUE(Fresh.CS->member(EffectKind::Write, 1, 4)); // seed, edge
  EXPECT_TRUE(Fresh.CS->member(EffectKind::Alloc, 2, 5)); // edge v3 -> v5
  for (FirstCall First :
       {FirstCall::Solve, FirstCall::Reaches, FirstCall::Explain})
    for (bool AllVars : {false, true})
      for (bool Baseline : {false, true})
        EXPECT_EQ(incrementalOutcome(First, AllVars, Baseline), Expected)
            << "first call " << static_cast<int>(First)
            << (AllVars ? ", variables up front" : "")
            << (Baseline ? ", baseline" : "");
}

// Edges out of v0 and v1 interleaved with other variables' edges, and
// v0 -> v2 added twice: the per-variable view must keep each variable's
// edges in insertion order.
//
//   v0 -> v1, v0 -> v2 (twice), v1 -> v3, v2 -> v4, v4 -> v5
//
// CHECK-SAT's DFS for read(l0), seeded in v0, pushes v1 then v2, so it
// pops v2 first and reaches v5 after visiting v0, v1, v2, v4, v5; with
// v0's edges reversed it would visit v3 as well.
void buildInterleavedEdges(ModeSystem &M) {
  ConstraintSystem &CS = *M.CS;
  M.Locs.fresh();
  for (int I = 0; I < 8; ++I)
    CS.makeVar();
  CS.setOrigin({1, 1}, "seed");
  CS.addElement(EffectKind::Read, 0, 0);
  CS.setOrigin({2, 1}, "first v0 -> v1");
  CS.addEdge(0, 1);
  CS.setOrigin({3, 1}, "unrelated");
  CS.addEdge(6, 7);
  CS.setOrigin({4, 1}, "first v0 -> v2");
  CS.addEdge(0, 2);
  CS.setOrigin({5, 1}, "unrelated");
  CS.addEdge(7, 6);
  CS.setOrigin({6, 1}, "v1 -> v3");
  CS.addEdge(1, 3);
  CS.setOrigin({7, 1}, "second v0 -> v2");
  CS.addEdge(0, 2);
  CS.setOrigin({8, 1}, "v2 -> v4");
  CS.addEdge(2, 4);
  CS.setOrigin({9, 1}, "unrelated");
  CS.addEdge(3, 6);
  CS.setOrigin({10, 1}, "v4 -> v5");
  CS.addEdge(4, 5);
}

TEST(SolverFlatLogs, InterleavedEdgesKeepInsertionOrder) {
  for (bool Baseline : {false, true}) {
    ModeSystem M(Baseline);
    M.CS->enableOriginTracking();
    buildInterleavedEdges(M);
    EXPECT_TRUE(M.CS->reaches(EffectKind::Read, 0, 5));
    EXPECT_EQ(M.CS->stats().CheckSatVisited, 5u)
        << (Baseline ? "baseline" : "collapsed");
    EXPECT_EQ(renderConstraintPath(M.CS->explainReach(EffectKind::Read, 0, 5)),
              "  1. v4 -> v5 at 10:1\n"
              "  2. v2 -> v4 at 8:1\n"
              "  3. first v0 -> v2 at 4:1\n"
              "  4. seed at 1:1\n")
        << (Baseline ? "baseline" : "collapsed");
  }
}

TEST(SolverFlatLogs, ExplainPathThroughAFiredEdgeCarriesTheNote) {
  // read(l0) in v0; if any access to T reaches v2, then v0 <= v1. The
  // path from v1 back to the seed crosses the fired edge.
  for (bool Baseline : {false, true}) {
    ModeSystem M(Baseline);
    ConstraintSystem &CS = *M.CS;
    CS.enableOriginTracking();
    LocId L0 = M.Locs.fresh(), T = M.Locs.fresh();
    for (int I = 0; I < 3; ++I)
      CS.makeVar();
    CS.setOrigin({1, 5}, "the access");
    CS.addElement(EffectKind::Read, L0, 0);
    CS.addElement(EffectKind::Write, T, 2);
    CS.setOrigin({3, 7}, "the confine? candidate");
    CondConstraint C;
    C.P = CondConstraint::Premise::LocInVar;
    C.Rho = T;
    C.Var = 2;
    C.Actions = CS.addActions({{CondAction::Kind::AddEdge, 0, 1}});
    CS.addConditional(std::move(C));
    // The firing, not whatever origin is current, stamps the edge.
    CS.setOrigin({9, 9}, "a later construct");
    EXPECT_TRUE(CS.explainReach(EffectKind::Read, L0, 1).empty());
    CS.solve();
    EXPECT_EQ(CS.stats().CondFirings, 1u);
    EXPECT_EQ(renderConstraintPath(CS.explainReach(EffectKind::Read, L0, 1)),
              "  1. the confine? candidate at 3:7\n"
              "  2. the access at 1:5\n")
        << (Baseline ? "baseline" : "collapsed");
  }
}

} // namespace
