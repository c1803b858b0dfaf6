//===- ConstraintSystem.cpp - Effect constraints and solving --*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "effects/ConstraintSystem.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Budget.h"
#include "support/Scc.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace lna;

ConstraintSystem::ConstraintSystem(LocTable &Locs) : Locs(Locs) {
  // The pre-optimization solver (no SCC collapse, no CHECK-SAT indexes)
  // stays reachable for byte-identity diffs and bench_solver's
  // before/after comparison.
  const char *E = std::getenv("LNA_SOLVER_BASELINE");
  Baseline = E && *E && *E != '0';
}

EffVar ConstraintSystem::makeVar() {
  ClassesValid = false;
  return NumVars++;
}

void ConstraintSystem::addElement(EffectKind K, LocId Rho, EffVar V) {
  assert(V < NumVars && "unknown effect variable");
  // A new seed invalidates the CHECK-SAT seed index, not the classes.
  SeedLog.emplace_back(V, EffectElem(K, Rho).bits());
  if (TrackOrigins)
    SeedOrigins.push_back(CurOrigin);
}

void ConstraintSystem::addElementAllKinds(LocId Rho, EffVar V) {
  addElement(EffectKind::Read, Rho, V);
  addElement(EffectKind::Write, Rho, V);
  addElement(EffectKind::Alloc, Rho, V);
}

void ConstraintSystem::addEdge(EffVar From, EffVar To) {
  if (recordEdge(From, To))
    ClassesValid = false;
}

bool ConstraintSystem::recordEdge(EffVar From, EffVar To) {
  assert(From < NumVars && To < NumVars && "unknown effect variable");
  if (From == To)
    return false;
  EdgeLog.emplace_back(From, To);
  if (TrackOrigins)
    EdgeOrigins.push_back(CurOrigin);
  return true;
}

void ConstraintSystem::addIntersection(InterOperand A, InterOperand B,
                                       EffVar Out) {
  uint32_t Idx = static_cast<uint32_t>(Inters.size());
  Inters.push_back({A, B, Out, TrackOrigins ? CurOrigin : Origin{}});
  auto Register = [&](const InterOperand &Op, uint8_t Side) {
    if (Op.K == InterOperand::Kind::Var)
      FeedLog.push_back({Op.Value, {Idx, Side}});
    else if (Op.K == InterOperand::Kind::VarUnion)
      for (EffVar V : Op.Union)
        FeedLog.push_back({V, {Idx, Side}});
  };
  Register(Inters[Idx].A, 0);
  Register(Inters[Idx].B, 1);
  ClassesValid = false;
}

bool ConstraintSystem::operandContains(const InterOperand &Op,
                                       uint32_t CanonElem) const {
  switch (Op.K) {
  case InterOperand::Kind::Elem:
    return canon(Op.Value) == CanonElem;
  case InterOperand::Kind::Var:
    return Sol[find(Op.Value)].contains(CanonElem);
  case InterOperand::Kind::VarUnion:
    for (EffVar V : Op.Union)
      if (Sol[find(V)].contains(CanonElem))
        return true;
    return false;
  }
  return false;
}

uint32_t ConstraintSystem::addConditional(CondConstraint C) {
  if (TrackOrigins && !C.OriginNote) {
    C.OriginLoc = CurOrigin.Loc;
    C.OriginNote = CurOrigin.Note;
  }
  Conds.push_back(C);
  return static_cast<uint32_t>(Conds.size() - 1);
}

PoolRange ConstraintSystem::addActions(std::span<const CondAction> Actions) {
  PoolRange R{static_cast<uint32_t>(ActionPool.size()),
              static_cast<uint32_t>(Actions.size())};
  ActionPool.insert(ActionPool.end(), Actions.begin(), Actions.end());
  return R;
}

PoolRange ConstraintSystem::addVarList(std::span<const EffVar> Vars) {
  PoolRange R{static_cast<uint32_t>(AnyOfPool.size()),
              static_cast<uint32_t>(Vars.size())};
  AnyOfPool.insert(AnyOfPool.end(), Vars.begin(), Vars.end());
  return R;
}

void ConstraintSystem::reserveConditionals(size_t NumConds, size_t NumActions,
                                           size_t NumAnyOf) {
  Conds.reserve(Conds.size() + NumConds);
  ActionPool.reserve(ActionPool.size() + NumActions);
  AnyOfPool.reserve(AnyOfPool.size() + NumAnyOf);
}

//===----------------------------------------------------------------------===//
// The per-variable view of the logs
//===----------------------------------------------------------------------===//

/// Stable counting sort of items 0..N-1 by Key(I) < NumKeys into a CSR:
/// Out[Start[K]..Start[K + 1]) holds Val(I) for the items of key K in
/// ascending I, and Idx (when non-null) the matching I.
template <typename T, typename KeyFn, typename ValFn>
static void countingSort(size_t N, uint32_t NumKeys, KeyFn Key, ValFn Val,
                         std::vector<uint32_t> &Start, std::vector<T> &Out,
                         std::vector<uint32_t> *Idx) {
  Start.assign(NumKeys + 1, 0);
  for (size_t I = 0; I < N; ++I)
    ++Start[Key(I) + 1];
  for (uint32_t K = 0; K < NumKeys; ++K)
    Start[K + 1] += Start[K];
  Out.resize(N);
  if (Idx)
    Idx->resize(N);
  // Fill through Start itself: afterwards Start[K] is where key K + 1
  // begins, so shifting one place right restores it.
  for (size_t I = 0; I < N; ++I) {
    uint32_t Slot = Start[Key(I)]++;
    Out[Slot] = Val(I);
    if (Idx)
      (*Idx)[Slot] = static_cast<uint32_t>(I);
  }
  for (uint32_t K = NumKeys; K-- > 1;)
    Start[K] = Start[K - 1];
  Start[0] = 0;
}

template <typename T>
bool ConstraintSystem::regroup(const std::vector<std::pair<EffVar, T>> &Log,
                               VarGroups<T> &G, bool KeepLogIdx) const {
  if (G.Keys == NumVars && G.Logged == Log.size())
    return false;
  countingSort(
      Log.size(), NumVars, [&](size_t I) { return Log[I].first; },
      [&](size_t I) { return Log[I].second; }, G.Start, G.Items,
      KeepLogIdx ? &G.LogIdx : nullptr);
  G.Keys = NumVars;
  G.Logged = Log.size();
  return true;
}

const ConstraintSystem::VarGroups<EffVar> &
ConstraintSystem::outEdges() const {
  if (regroup(EdgeLog, OutEdgeView, TrackOrigins)) {
    // The fired edges are in the view now, after each source's earlier
    // edges.
    Fired.Last.clear();
    Fired.Nodes.clear();
  }
  return OutEdgeView;
}

const ConstraintSystem::VarGroups<uint32_t> &ConstraintSystem::seeds() const {
  regroup(SeedLog, SeedView, TrackOrigins);
  return SeedView;
}

const ConstraintSystem::VarGroups<ConstraintSystem::Feed> &
ConstraintSystem::outInters() const {
  regroup(FeedLog, OutInterView, false);
  return OutInterView;
}

const ConstraintSystem::VarGroups<uint32_t> &
ConstraintSystem::probeFeeds() const {
  VarGroups<uint32_t> &G = ProbeView;
  if (G.Keys == 3 * NumVars && G.Logged == FeedLog.size())
    return G;
  auto Slot = [&](size_t I) {
    const auto &[V, F] = FeedLog[I];
    const InterNode &N = Inters[F.first];
    const InterOperand &Other = F.second == 0 ? N.B : N.A;
    return 3 * V + (Other.K == InterOperand::Kind::Elem ? 2u : F.second);
  };
  countingSort(
      FeedLog.size(), 3 * NumVars, Slot,
      [&](size_t I) { return FeedLog[I].second.first; }, G.Start, G.Items,
      nullptr);
  G.Keys = 3 * NumVars;
  G.Logged = FeedLog.size();
  return G;
}

//===----------------------------------------------------------------------===//
// Classes: the union-find over variables
//===----------------------------------------------------------------------===//

template <typename FnT>
void ConstraintSystem::forEachSuccessor(EffVar C, FnT &&Fn) const {
  forEachMember(C, [&](EffVar M) {
    for (EffVar W : OutEdgeView.of(M))
      Fn(find(W));
  });
  Fired.forEach(C, [&](EffVar W) { Fn(find(W)); });
}

uint32_t ConstraintSystem::classFeeds(EffVar C, uint8_t Slot) const {
  uint32_t Feeds = 0;
  forEachMember(C, [&](EffVar M) {
    Feeds += ProbeView.Start[3 * M + Slot + 1] - ProbeView.Start[3 * M + Slot];
  });
  return Feeds;
}

void ConstraintSystem::condense() const {
  Span Sp("solver-condense");
  const VarGroups<EffVar> &Out = outEdges();
  const uint32_t OldVars = static_cast<uint32_t>(Sol.size());
  const std::vector<EffVar> OldLeader = std::move(Leader);

  // Tarjan over the plain-edge graph, read in place (intersections are
  // not collapsed: a cycle through an I node does not imply solution
  // equality). Baseline mode keeps every variable its own class, ranked
  // by index.
  uint32_t NumClasses = NumVars;
  if (Baseline) {
    Rank.resize(NumVars);
    for (EffVar V = 0; V < NumVars; ++V)
      Rank[V] = V;
  } else {
    TarjanSCC SCC(Out, NumVars);
    Rank = std::move(SCC.Comp);
    NumClasses = SCC.NumComps;
  }
  Leader.clear();
  NextMember.clear();
  if (NumClasses != NumVars) {
    // Leaders are lowest members; chain each class's members ascending.
    std::vector<EffVar> LeaderOf(NumClasses);
    for (EffVar V = NumVars; V-- > 0;)
      LeaderOf[Rank[V]] = V;
    Leader.resize(NumVars);
    NextMember.assign(NumVars, InvalidEffVar);
    for (EffVar V = NumVars; V-- > 0;) {
      const EffVar L = LeaderOf[Rank[V]];
      Leader[V] = L;
      if (L != V) {
        NextMember[V] = NextMember[L];
        NextMember[L] = V;
      }
    }
  }
  Stats.CollapsedVars = NumVars - NumClasses;

  // Carry solver state. Structure only grows, so each old class lies in
  // one new class, and the old class of the new leader keeps its set in
  // place. A class that absorbed others re-queues its whole (unioned)
  // set, since one old class's elements never flowed along another's
  // edges.
  Sol.resize(NumVars);
  Pending.Last.resize(NumVars, RingLists::None);
  std::vector<EffVar> Merged;
  for (EffVar V = 0; V < OldVars; ++V) {
    const EffVar NL = find(V);
    if ((!OldLeader.empty() && OldLeader[V] != V) || NL == V)
      continue;
    for (uint32_t E : Sol[V])
      Sol[NL].insert(E);
    Sol[V] = SmallElemSet();
    Pending.Last[V] = RingLists::None;
    Merged.push_back(NL);
  }
  std::sort(Merged.begin(), Merged.end());
  Merged.erase(std::unique(Merged.begin(), Merged.end()), Merged.end());
  for (EffVar C : Merged)
    refillPending(C);
  Worklist.clear();
  std::vector<EffVar> Queued;
  for (EffVar C = 0; C < NumVars; ++C)
    if (!Pending.empty(C))
      Queued.push_back(C);
  queueByRank(Queued);

  // Variables made since the last solve are in scope until one scopes
  // them.
  InScope.resize(NumVars, 1);
  TopoOrdered = true;
  IndexValid = false;
  VisitEpoch.clear();
  SideEpoch.clear();
  ClassesValid = true;
}

bool ConstraintSystem::classEdgeExists(EffVar From, EffVar To) const {
  bool Found = false;
  forEachSuccessor(From, [&](EffVar C) { Found = Found || C == To; });
  return Found;
}

bool ConstraintSystem::classReaches(EffVar From, EffVar To) const {
  // Tarjan ranks classes so that every edge between them runs from a
  // higher rank to a lower one. While no fired edge has broken that
  // order, a path only descends: nothing ranked below To can reach it.
  const bool Ordered = TopoOrdered;
  if (Ordered && Rank[From] < Rank[To])
    return false;
  const uint32_t Ep = nextEpoch();
  std::vector<uint32_t> &Work = WorkScratch;
  Work.clear();
  auto Visit = [&](EffVar C) {
    if (VisitEpoch[C] == Ep || (Ordered && Rank[C] < Rank[To]))
      return;
    VisitEpoch[C] = Ep;
    Work.push_back(C);
  };
  Visit(From);
  while (!Work.empty()) {
    EffVar C = Work.back();
    Work.pop_back();
    if (C == To)
      return true;
    forEachSuccessor(C, Visit);
  }
  return false;
}

uint32_t ConstraintSystem::nextEpoch() const {
  // Sized on first use after each Tarjan pass: --infer on a module whose
  // conditionals fire no edges never touches it.
  if (VisitEpoch.size() != NumVars || SideEpoch.size() != Inters.size()) {
    VisitEpoch.assign(NumVars, 0);
    SideEpoch.assign(Inters.size(), 0);
    SideMask.assign(Inters.size(), 0);
    Epoch = 0;
  }
  if (++Epoch == 0) {
    // Epoch wrap: invalidate all stamps once, then restart at 1.
    std::fill(VisitEpoch.begin(), VisitEpoch.end(), 0);
    std::fill(SideEpoch.begin(), SideEpoch.end(), 0);
    Epoch = 1;
  }
  return Epoch;
}

void ConstraintSystem::ensureCheckSatIndex() const {
  if (IndexValid && IndexMergeStamp == Locs.numClassesMerged() &&
      IndexSeedStamp == SeedLog.size())
    return;
  SeedClasses.clear();
  ElemFeeds.clear();
  const VarGroups<uint32_t> &Seeds = seeds();
  for (EffVar V = 0; V < NumVars; ++V)
    for (uint32_t S : Seeds.of(V))
      SeedClasses[canon(S)].push_back(find(V));
  for (uint32_t I = 0; I < Inters.size(); ++I) {
    const InterNode &N = Inters[I];
    if (N.A.K == InterOperand::Kind::Elem)
      ElemFeeds[canon(N.A.Value)].push_back({I, 0});
    if (N.B.K == InterOperand::Kind::Elem)
      ElemFeeds[canon(N.B.Value)].push_back({I, 1});
  }
  IndexMergeStamp = Locs.numClassesMerged();
  IndexSeedStamp = SeedLog.size();
  IndexValid = true;
}

//===----------------------------------------------------------------------===//
// CHECK-SAT (Figure 5)
//===----------------------------------------------------------------------===//

bool ConstraintSystem::reaches(EffectKind K, LocId Rho, EffVar Target) const {
  Span Sp("checksat-dfs");
  ++Stats.CheckSatQueries;
  uint64_t VisitedBefore = Stats.CheckSatVisited;
  uint32_t C = EffectElem(K, Locs.find(Rho)).bits();

  bool Found;
  if (Baseline) {
    Found = reachesBaseline(C, Target);
  } else {
    ensureClasses();
    ensureCheckSatIndex();
    Found = reachesCollapsed(C, Target);
  }
  static const MetricId VisitsMetric = metricId("checksat-visits");
  obsHistogram(VisitsMetric, Stats.CheckSatVisited - VisitedBefore);
  return Found;
}

/// The pre-optimization query: per-query visited/side-mask allocation,
/// full scans of the intersection and seed storage, var-granularity DFS.
bool ConstraintSystem::reachesBaseline(uint32_t C, EffVar Target) const {
  const VarGroups<EffVar> &Out = outEdges();
  const VarGroups<uint32_t> &Seeds = seeds();
  const VarGroups<Feed> &Feeds = outInters();
  std::vector<uint8_t> VisitedVar(NumVars, 0);
  // Two-bit mask per intersection: which sides the element has reached.
  std::vector<uint8_t> SideMask(Inters.size(), 0);
  std::vector<EffVar> Work;

  bool Found = false;
  auto Visit = [&](EffVar V) {
    if (VisitedVar[V])
      return;
    VisitedVar[V] = 1;
    ++Stats.CheckSatVisited;
    if (V == Target)
      Found = true;
    Work.push_back(V);
  };

  // Fold the constant (element) operands of intersections into the masks.
  for (uint32_t I = 0; I < Inters.size(); ++I) {
    const InterNode &N = Inters[I];
    if (N.A.K == InterOperand::Kind::Elem && canon(N.A.Value) == C)
      SideMask[I] |= 1;
    if (N.B.K == InterOperand::Kind::Elem && canon(N.B.Value) == C)
      SideMask[I] |= 2;
    if (SideMask[I] == 3)
      Visit(N.Out);
  }
  if (Found)
    return true;

  // Sources: every variable whose seed set contains the element.
  for (EffVar V = 0; V < NumVars; ++V) {
    for (uint32_t S : Seeds.of(V))
      if (canon(S) == C) {
        Visit(V);
        break;
      }
  }

  while (!Work.empty() && !Found) {
    budgetStep();
    EffVar V = Work.back();
    Work.pop_back();
    for (EffVar W : Out.of(V))
      Visit(W);
    for (auto [I, Side] : Feeds.of(V)) {
      SideMask[I] |= (1u << Side);
      if (SideMask[I] == 3)
        Visit(Inters[I].Out);
    }
  }
  return Found;
}

/// The optimized query: class-granularity DFS over the per-variable
/// views, sources pulled from the seed/element-operand indexes,
/// epoch-stamped scratch instead of per-query allocation and clearing.
bool ConstraintSystem::reachesCollapsed(uint32_t C, EffVar Target) const {
  const VarGroups<Feed> &Feeds = outInters();
  const uint32_t Ep = nextEpoch();
  const EffVar TC = Target < NumVars ? find(Target) : InvalidEffVar;
  std::vector<uint32_t> &Work = WorkScratch;
  Work.clear();

  bool Found = false;
  auto Visit = [&](EffVar Class) {
    if (VisitEpoch[Class] == Ep)
      return;
    VisitEpoch[Class] = Ep;
    ++Stats.CheckSatVisited;
    if (Class == TC)
      Found = true;
    Work.push_back(Class);
  };
  auto OrMask = [&](uint32_t I, uint8_t Bit) -> uint8_t {
    if (SideEpoch[I] != Ep) {
      SideEpoch[I] = Ep;
      SideMask[I] = 0;
    }
    return SideMask[I] |= Bit;
  };

  // Constant (element) intersection operands, from the index.
  if (auto It = ElemFeeds.find(C); It != ElemFeeds.end())
    for (auto [I, Side] : It->second)
      if (OrMask(I, static_cast<uint8_t>(1u << Side)) == 3)
        Visit(find(Inters[I].Out));
  if (Found)
    return true;

  // Seed sources, from the index.
  if (auto It = SeedClasses.find(C); It != SeedClasses.end())
    for (EffVar Class : It->second)
      Visit(Class);

  while (!Work.empty() && !Found) {
    budgetStep();
    EffVar Class = Work.back();
    Work.pop_back();
    forEachSuccessor(Class, Visit);
    forEachMember(Class, [&](EffVar M) {
      for (auto [I, Side] : Feeds.of(M))
        if (OrMask(I, static_cast<uint8_t>(1u << Side)) == 3)
          Visit(find(Inters[I].Out));
    });
  }
  return Found;
}

bool ConstraintSystem::reachesAnyKind(LocId Rho, EffVar Target) const {
  return reaches(EffectKind::Read, Rho, Target) ||
         reaches(EffectKind::Write, Rho, Target) ||
         reaches(EffectKind::Alloc, Rho, Target);
}

//===----------------------------------------------------------------------===//
// Least-solution propagation
//===----------------------------------------------------------------------===//

void ConstraintSystem::insertElem(EffVar V, uint32_t ElemBits) {
  ensureClasses();
  insertElemClass(find(V), ElemBits);
}

void ConstraintSystem::insertElemClass(EffVar C, uint32_t ElemBits) {
  if (!InScope[C])
    return;
  if (!Sol[C].insert(ElemBits))
    return;
  ++Stats.PropagatedElems;
  if (Pending.empty(C))
    Worklist.push_back(C);
  Pending.push(C, ElemBits);
}

void ConstraintSystem::refillPending(EffVar C) const {
  Pending.Last[C] = RingLists::None;
  for (uint32_t E : Sol[C])
    Pending.push(C, E);
}

void ConstraintSystem::queueByRank(std::vector<EffVar> &Classes) const {
  std::sort(Classes.begin(), Classes.end(),
            [&](EffVar A, EffVar B) { return Rank[A] < Rank[B]; });
  Worklist.insert(Worklist.end(), Classes.begin(), Classes.end());
}

void ConstraintSystem::propagate() {
  Span Sp("propagate");
  ensureClasses();
  if (Baseline) {
    outInters();
  } else {
    probeFeeds();
    syncHolders();
  }
  while (!Worklist.empty()) {
    const EffVar C = Worklist.back();
    Worklist.pop_back();
    const uint32_t Tail = Pending.Last[C];
    Pending.Last[C] = RingLists::None;
    uint64_t Flushed = 0;
    RingLists::walk(Pending, Tail, [&](uint32_t E) {
      ++Flushed;
      forEachSuccessor(C, [&](EffVar T) {
        if (T != C) // an edge inside a merged class
          insertElemClass(T, E);
      });
      flushToIntersections(C, E);
    });
    // Propagation is the solver's dominant cost; charge the budget per
    // pending element flushed, not per pop.
    budgetStep(Flushed + 1);
  }
  Pending.Nodes.clear();
}

void ConstraintSystem::probe(uint32_t Inter, const InterOperand &Other,
                             uint32_t Elem) {
  ++Stats.InterProbes;
  if (operandContains(Other, Elem))
    insertElemClass(find(Inters[Inter].Out), Elem);
}

void ConstraintSystem::flushToIntersections(EffVar C, uint32_t E) {
  if (Baseline) {
    // Every feed probes its opposite operand.
    forEachMember(C, [&](EffVar M) {
      for (auto [I, Side] : OutInterView.of(M))
        probe(I, Side == 0 ? Inters[I].B : Inters[I].A, E);
    });
    return;
  }
  for (uint8_t S = 0; S < 2; ++S) {
    const uint32_t Feeds = classFeeds(C, S);
    if (Feeds == 0)
      continue;
    const uint8_t O = 1 - S;
    if (Feeds <= Holders.FeedSum[O][E]) {
      // C's own side-S feeds are the cheaper side: probe their opposite
      // operands, as the baseline does.
      forEachMember(C, [&](EffVar M) {
        for (uint32_t I : ProbeView.of(3 * M + S))
          probe(I, S == 0 ? Inters[I].B : Inters[I].A, E);
      });
    } else {
      // Only intersections whose other side has already flushed E can
      // newly gain it; the rest are found when that side flushes it.
      // Probe the side-S operand of each holder's side-O feeds.
      for (uint32_t Node = Holders.Head[O][E]; Node != HolderIndex::None;
           Node = Holders.Nodes[Node].second)
        forEachMember(find(Holders.Nodes[Node].first), [&](EffVar M) {
          for (uint32_t I : ProbeView.of(3 * M + O))
            probe(I, S == 0 ? Inters[I].A : Inters[I].B, E);
        });
    }
    recordHolder(C, S, E, Feeds);
  }
  // An element operand never flushes, so these feeds always probe it.
  forEachMember(C, [&](EffVar M) {
    for (uint32_t I : ProbeView.of(3 * M + 2)) {
      const InterNode &N = Inters[I];
      probe(I, N.A.K == InterOperand::Kind::Elem ? N.A : N.B, E);
    }
  });
}

void ConstraintSystem::recordHolder(EffVar C, uint8_t Side, uint32_t E,
                                    uint32_t Feeds) {
  Holders.Nodes.emplace_back(C, Holders.Head[Side][E]);
  Holders.Head[Side][E] = static_cast<uint32_t>(Holders.Nodes.size() - 1);
  uint32_t &Sum = Holders.FeedSum[Side][E];
  Sum = Sum + Feeds < Sum ? ~0u : Sum + Feeds; // saturate
}

void ConstraintSystem::syncHolders() {
  // Every canonical element has bits below 4 * (number of locations).
  const size_t Keys = size_t(4) * Locs.size();
  for (uint8_t S = 0; S < 2; ++S)
    if (Holders.Head[S].size() < Keys) {
      Holders.Head[S].resize(Keys, HolderIndex::None);
      Holders.FeedSum[S].resize(Keys, 0);
    }
  // A new intersection can give a class feeds for elements it flushed
  // without any, which the index never recorded. Recording every element
  // each feeding class now holds keeps the invariant (each flushed
  // element recorded, each recorded one held); elements still pending
  // are just recorded twice.
  const uint32_t NumInters = static_cast<uint32_t>(Inters.size());
  if (Holders.Propagated && Holders.NumInters != NumInters) {
    Holders.Nodes.clear();
    for (uint8_t S = 0; S < 2; ++S) {
      std::fill(Holders.Head[S].begin(), Holders.Head[S].end(),
                HolderIndex::None);
      std::fill(Holders.FeedSum[S].begin(), Holders.FeedSum[S].end(), 0);
    }
    std::vector<EffVar> Feeding;
    for (EffVar C = 0; C < NumVars; ++C)
      if (find(C) == C && (classFeeds(C, 0) != 0 || classFeeds(C, 1) != 0))
        Feeding.push_back(C);
    std::sort(Feeding.begin(), Feeding.end(),
              [&](EffVar A, EffVar B) { return Rank[A] < Rank[B]; });
    for (EffVar C : Feeding)
      for (uint8_t S = 0; S < 2; ++S) {
        const uint32_t Feeds = classFeeds(C, S);
        if (Feeds != 0)
          for (uint32_t E : Sol[C])
            recordHolder(C, S, E, Feeds);
      }
  }
  Holders.NumInters = NumInters;
  Holders.Propagated = true;
}

void ConstraintSystem::recanonicalize() {
  Span Sp("recanonicalize");
  budgetStep(NumVars);
  ensureClasses();
  // Rebuild solution sets with canonical elements. Only classes whose
  // set actually changed (an element mentioned a just-unified location)
  // need re-pushing: intersections with unchanged inputs cannot produce
  // new outputs, and edges propagate set contents, which are unchanged.
  // Unchanged classes keep any elements queued by just-fired conditional
  // actions; they are already canonical and still need to flow.
  std::vector<EffVar> Queued;
  if (Locs.numClassesMerged() == CanonMerges) {
    // No location merged since every set was last canonical, so no set
    // changes: the classes to queue are those already queued.
    for (EffVar C : Worklist)
      if (InScope[C])
        Queued.push_back(C);
  } else {
    for (EffVar C = 0; C < NumVars; ++C) {
      if (!InScope[C])
        continue;
      bool Changed = false;
      for (uint32_t E : Sol[C])
        if (canon(E) != E) {
          Changed = true;
          break;
        }
      if (Changed) {
        SmallElemSet Fresh;
        Fresh.reserve(Sol[C].size());
        for (uint32_t E : Sol[C])
          Fresh.insert(canon(E));
        Sol[C] = std::move(Fresh);
        refillPending(C);
      }
      if (!Pending.empty(C))
        Queued.push_back(C);
    }
    CanonMerges = Locs.numClassesMerged();
  }
  Worklist.clear();
  queueByRank(Queued);
}

void ConstraintSystem::computeScope(const std::vector<EffVar> &QueryVars) {
  InScope.assign(NumVars, QueryVars.empty());
  if (QueryVars.empty())
    return;
  // Backwards search (Section 6.2): only the part of the graph that can
  // flow into a query variable, a conditional's tested variable, or a
  // variable a conditional action writes needs least-solution computation.
  std::vector<EffVar> Work;
  auto Mark = [&](EffVar V) {
    if (V == InvalidEffVar || InScope[V])
      return;
    InScope[V] = 1;
    Work.push_back(V);
  };
  for (EffVar V : QueryVars)
    Mark(V);
  for (const CondConstraint &C : Conds) {
    Mark(C.Var);
    Mark(C.VarA);
    for (EffVar V : anyOf(C))
      Mark(V);
    for (const CondAction &A : actions(C))
      if (A.K == CondAction::Kind::AddEdge ||
          A.K == CondAction::Kind::AddElemAllKinds ||
          A.K == CondAction::Kind::AddElemReadWrite)
        Mark(A.B);
  }
  // Reverse adjacency, as CSRs straight off the edge log and the
  // intersections' outputs.
  std::vector<uint32_t> RevStart, RevInterStart;
  std::vector<EffVar> Rev;
  std::vector<uint32_t> RevInter;
  countingSort(
      EdgeLog.size(), NumVars, [&](size_t I) { return EdgeLog[I].second; },
      [&](size_t I) { return EdgeLog[I].first; }, RevStart, Rev, nullptr);
  countingSort(
      Inters.size(), NumVars, [&](size_t I) { return Inters[I].Out; },
      [](size_t I) { return static_cast<uint32_t>(I); }, RevInterStart,
      RevInter, nullptr);
  while (!Work.empty()) {
    EffVar V = Work.back();
    Work.pop_back();
    for (uint32_t E = RevStart[V]; E < RevStart[V + 1]; ++E)
      Mark(Rev[E]);
    for (uint32_t R = RevInterStart[V]; R < RevInterStart[V + 1]; ++R) {
      const uint32_t I = RevInter[R];
      for (const InterOperand *Op : {&Inters[I].A, &Inters[I].B}) {
        if (Op->K == InterOperand::Kind::Var)
          Mark(Op->Value);
        else if (Op->K == InterOperand::Kind::VarUnion)
          for (EffVar U : Op->Union)
            Mark(U);
      }
    }
  }
}

bool ConstraintSystem::evalPremise(const CondConstraint &C) const {
  switch (C.P) {
  case CondConstraint::Premise::LocInVar:
    if (C.AnyOf.Size != 0)
      return memberAnyKindAnyOf(C.Rho, anyOf(C));
    return memberAnyKind(C.Rho, C.Var);
  case CondConstraint::Premise::SideEffectNonEmpty:
    for (uint32_t E : Sol[find(C.Var)]) {
      EffectKind K = EffectElem(E).kind();
      if (K == EffectKind::Write || K == EffectKind::Alloc)
        return true;
    }
    return false;
  case CondConstraint::Premise::ReadWriteOverlap: {
    const SmallElemSet &SideSol = Sol[find(C.Var)];
    for (uint32_t E : Sol[find(C.VarA)]) {
      EffectElem Elem(E);
      if (Elem.kind() != EffectKind::Read)
        continue;
      LocId L = Locs.find(Elem.loc());
      if (SideSol.contains(EffectElem(EffectKind::Write, L).bits()) ||
          SideSol.contains(EffectElem(EffectKind::Alloc, L).bits()))
        return true;
    }
    return false;
  }
  }
  return false;
}

void ConstraintSystem::applyAction(const CondAction &A) {
  switch (A.K) {
  case CondAction::Kind::UnifyLocs:
    // A failed restrict/confine collapses the split pair: the original
    // location's value flows into the (no longer separate) split one.
    Locs.unify(A.A, A.B, FlowDir::AToB);
    break;
  case CondAction::Kind::AddEdge:
    addFiredEdge(A.A, A.B);
    break;
  case CondAction::Kind::AddElemAllKinds:
    addElementAllKinds(A.A, A.B);
    insertElem(A.B, EffectElem(EffectKind::Read, Locs.find(A.A)).bits());
    insertElem(A.B, EffectElem(EffectKind::Write, Locs.find(A.A)).bits());
    insertElem(A.B, EffectElem(EffectKind::Alloc, Locs.find(A.A)).bits());
    break;
  case CondAction::Kind::AddElemReadWrite:
    addElement(EffectKind::Read, A.A, A.B);
    addElement(EffectKind::Write, A.A, A.B);
    insertElem(A.B, EffectElem(EffectKind::Read, Locs.find(A.A)).bits());
    insertElem(A.B, EffectElem(EffectKind::Write, Locs.find(A.A)).bits());
    break;
  }
}

void ConstraintSystem::addFiredEdge(EffVar From, EffVar To) {
  ensureClasses();
  if (!recordEdge(From, To))
    return;
  EffVar CA = find(From), CB = find(To);
  if (!Baseline && (CA == CB || classEdgeExists(CA, CB))) {
    // One class, or an edge the classes already have (a failed confine?
    // fires one action list from up to four conditionals): nothing
    // changes.
  } else if (!Baseline && classReaches(CB, CA)) {
    // The edge closes a cycle: a new Tarjan pass merges the classes on
    // it, carrying and re-queueing their solutions.
    condense();
    CA = find(From);
    CB = find(To);
  } else {
    // No cycle (or, in baseline mode, no collapse): the classes are
    // unchanged, and the edge is walked from the source class's fired
    // list until the edge view is next regrouped.
    if (Fired.Last.empty())
      Fired.Last.assign(NumVars, RingLists::None);
    Fired.push(CA, To);
    TopoOrdered = TopoOrdered && Rank[CB] < Rank[CA];
  }
  // If the endpoints stay separate, flow the already-computed solution
  // across the new edge explicitly (inserting into CB leaves Sol[CA]
  // untouched).
  if (CA != CB)
    for (uint32_t E : Sol[CA])
      insertElemClass(CB, E);
}

void ConstraintSystem::solve(const std::vector<EffVar> &QueryVars) {
  Span Sp("solve");
  computeScope(QueryVars);
  ensureClasses();
  // Edges and feeds added since the last solve() must also carry what
  // their sources already hold: re-queue every solved set (all empty
  // before the first solve).
  if (EdgeLog.size() + FeedLog.size() != SolvedLogs) {
    std::vector<EffVar> Queued;
    for (EffVar C = 0; C < NumVars; ++C) {
      if (!InScope[C] || Sol[C].empty())
        continue;
      if (Pending.empty(C))
        Queued.push_back(C);
      refillPending(C);
    }
    queueByRank(Queued);
  }

  // Seed every variable's directly-included elements.
  const VarGroups<uint32_t> &Seeds = seeds();
  for (EffVar V = 0; V < NumVars; ++V)
    for (uint32_t S : Seeds.of(V))
      insertElem(V, canon(S));
  // Constant intersections (both operands elements).
  for (const InterNode &N : Inters)
    if (N.A.K == InterOperand::Kind::Elem &&
        N.B.K == InterOperand::Kind::Elem && canon(N.A.Value) == canon(N.B.Value))
      insertElem(N.Out, canon(N.A.Value));

  propagate();
  ++Stats.Rounds;

  // Fire conditional constraints to a fixpoint. Each fires at most once,
  // bounding the number of rounds.
  Span SpCond("resolve-conditionals");
  while (true) {
    bool AnyFired = false;
    for (CondConstraint &C : Conds) {
      budgetStep();
      if (C.Fired)
        continue;
      if (!evalPremise(C))
        continue;
      C.Fired = true;
      AnyFired = true;
      ++Stats.CondFirings;
      // Constraints added by the firing inherit the conditional's
      // provenance, so explain paths can cross the firing.
      setOrigin(C.OriginLoc, C.OriginNote ? C.OriginNote
                                          : "fired conditional constraint");
      for (const CondAction &A : actions(C))
        applyAction(A);
    }
    if (!AnyFired)
      break;
    recanonicalize();
    propagate();
    ++Stats.Rounds;
  }
  SolvedLogs = EdgeLog.size() + FeedLog.size();
}

const SmallElemSet &ConstraintSystem::solution(EffVar V) const {
  assert(V < NumVars && "unknown effect variable");
  ensureClasses();
  return Sol[find(V)];
}

bool ConstraintSystem::member(EffectKind K, LocId Rho, EffVar V) const {
  ensureClasses();
  return Sol[find(V)].contains(EffectElem(K, Locs.find(Rho)).bits());
}

bool ConstraintSystem::memberAnyKind(LocId Rho, EffVar V) const {
  const EffVar Vs[] = {V};
  return memberAnyKindAnyOf(Rho, Vs);
}

bool ConstraintSystem::memberAnyKindAnyOf(LocId Rho,
                                          std::span<const EffVar> Vs) const {
  ensureClasses();
  const LocId L = Locs.find(Rho);
  for (EffVar V : Vs) {
    const SmallElemSet &S = Sol[find(V)];
    for (EffectKind K :
         {EffectKind::Read, EffectKind::Write, EffectKind::Alloc})
      if (S.contains(EffectElem(K, L).bits()))
        return true;
  }
  return false;
}

std::string ConstraintSystem::solutionToString(EffVar V) const {
  // Render in sorted element order: set iteration order is
  // representation-defined (and differs between the collapsed and
  // baseline solvers), and debug output should not leak it.
  std::vector<uint32_t> Elems;
  for (uint32_t E : solution(V))
    Elems.push_back(E);
  std::sort(Elems.begin(), Elems.end());
  std::string Out = "{";
  bool First = true;
  for (uint32_t E : Elems) {
    if (!First)
      Out += ", ";
    First = false;
    EffectElem Elem(E);
    switch (Elem.kind()) {
    case EffectKind::Read:
      Out += "read(";
      break;
    case EffectKind::Write:
      Out += "write(";
      break;
    case EffectKind::Alloc:
      Out += "alloc(";
      break;
    }
    Out += "rho" + std::to_string(Locs.find(Elem.loc())) + ")";
  }
  return Out + "}";
}

//===----------------------------------------------------------------------===//
// Provenance (--explain) and metrics
//===----------------------------------------------------------------------===//

std::vector<ExplainStep>
ConstraintSystem::explainReach(EffectKind K, LocId Rho, EffVar Target) const {
  // A breadth-first replay of reaches() that records, for every variable,
  // the constraint through which the element first arrived. BFS (not the
  // DFS of CHECK-SAT) so the reconstructed witness is a shortest
  // constraint chain. Runs on the uncollapsed graph: witness steps must
  // correspond one-to-one to program constraints, and --explain is off
  // the hot path.
  uint32_t C = EffectElem(K, Locs.find(Rho)).bits();

  struct Parent {
    enum Kind : uint8_t { None, Seed, Edge, Inter } K = None;
    EffVar From = InvalidEffVar;
    Origin O{};
  };
  const VarGroups<EffVar> &Out = outEdges();
  const VarGroups<uint32_t> &Seeds = seeds();
  const VarGroups<Feed> &Feeds = outInters();
  // The origin of the constraint at Slot of a grouped log (none when
  // origin tracking was off).
  auto OriginAt = [](const std::vector<Origin> &Origins,
                     const std::vector<uint32_t> &LogIdx, uint32_t Slot) {
    return Slot < LogIdx.size() && LogIdx[Slot] < Origins.size()
               ? Origins[LogIdx[Slot]]
               : Origin{};
  };
  std::vector<Parent> Par(NumVars);
  std::vector<uint8_t> Visited(NumVars, 0);
  std::vector<uint8_t> SideMask(Inters.size(), 0);
  std::vector<EffVar> Queue;
  size_t Head = 0;

  auto Visit = [&](EffVar V, Parent P) {
    if (V >= NumVars || Visited[V])
      return;
    Visited[V] = 1;
    Par[V] = P;
    Queue.push_back(V);
  };

  // Constant (element) intersection operands first, as in reaches().
  for (uint32_t I = 0; I < Inters.size(); ++I) {
    const InterNode &N = Inters[I];
    if (N.A.K == InterOperand::Kind::Elem && canon(N.A.Value) == C)
      SideMask[I] |= 1;
    if (N.B.K == InterOperand::Kind::Elem && canon(N.B.Value) == C)
      SideMask[I] |= 2;
    if (SideMask[I] == 3)
      Visit(N.Out, {Parent::Inter, InvalidEffVar, N.Orig});
  }

  // Seed sources: the element's origin is the access that generated it.
  for (EffVar V = 0; V < NumVars; ++V)
    for (uint32_t S = Seeds.Start[V]; S < Seeds.Start[V + 1]; ++S)
      if (canon(Seeds.Items[S]) == C) {
        Visit(V, {Parent::Seed, InvalidEffVar,
                  OriginAt(SeedOrigins, Seeds.LogIdx, S)});
        break;
      }

  while (Head < Queue.size() && Target < NumVars && !Visited[Target]) {
    EffVar V = Queue[Head++];
    for (uint32_t E = Out.Start[V]; E < Out.Start[V + 1]; ++E)
      Visit(Out.Items[E],
            {Parent::Edge, V, OriginAt(EdgeOrigins, Out.LogIdx, E)});
    for (auto [I, Side] : Feeds.of(V)) {
      SideMask[I] |= static_cast<uint8_t>(1u << Side);
      if (SideMask[I] == 3)
        Visit(Inters[I].Out, {Parent::Inter, V, Inters[I].Orig});
    }
  }
  if (Target >= NumVars || !Visited[Target])
    return {};

  // Walk the parent chain from the violated scope's variable back to the
  // seeding access; emitted in that order, the path ends at the access.
  std::vector<ExplainStep> Steps;
  EffVar V = Target;
  while (true) {
    const Parent &P = Par[V];
    ExplainStep S;
    S.Loc = P.O.Loc;
    switch (P.K) {
    case Parent::Seed:
      S.Note = P.O.Note ? P.O.Note : "effect element source";
      Steps.push_back(std::move(S));
      return Steps;
    case Parent::Edge:
      S.Note = P.O.Note ? P.O.Note : "effect inclusion";
      break;
    case Parent::Inter:
      S.Note = P.O.Note ? P.O.Note : "effect intersection";
      break;
    case Parent::None:
      return Steps; // unreachable if Visited[Target]
    }
    Steps.push_back(std::move(S));
    if (P.From == InvalidEffVar)
      return Steps; // element-operand intersection: no further chain
    V = P.From;
  }
}

std::vector<ExplainStep>
ConstraintSystem::explainReachAnyKind(LocId Rho, EffVar Target) const {
  for (EffectKind K :
       {EffectKind::Read, EffectKind::Write, EffectKind::Alloc}) {
    std::vector<ExplainStep> Path = explainReach(K, Rho, Target);
    if (!Path.empty())
      return Path;
  }
  return {};
}

void ConstraintSystem::recordGraphMetrics() const {
  if (!currentMetrics())
    return;
  static const MetricId OutDegree = metricId("constraint-out-degree");
  const VarGroups<EffVar> &Out = outEdges();
  const VarGroups<Feed> &Feeds = outInters();
  for (EffVar V = 0; V < NumVars; ++V)
    obsHistogram(OutDegree, Out.of(V).size() + Feeds.of(V).size());
}

void ConstraintSystem::recordSolutionMetrics() const {
  if (!currentMetrics())
    return;
  ensureClasses();
  // Report per *variable*, not per class, so the effect-set-size
  // distribution is unchanged by the collapse.
  static const MetricId SetSize = metricId("effect-set-size");
  for (EffVar V = 0; V < NumVars; ++V)
    if (InScope[V])
      obsHistogram(SetSize, Sol[find(V)].size());
}
