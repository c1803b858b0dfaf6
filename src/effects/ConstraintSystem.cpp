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
  InScope.push_back(1);
  Cond.Valid = false;
  return NumVars++;
}

void ConstraintSystem::addElement(EffectKind K, LocId Rho, EffVar V) {
  assert(V < NumVars && "unknown effect variable");
  // A new seed invalidates the CHECK-SAT seed index, not the condensation.
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
    Cond.Valid = false;
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
  Cond.Valid = false;
}

bool ConstraintSystem::operandContains(const InterOperand &Op,
                                       uint32_t CanonElem) const {
  switch (Op.K) {
  case InterOperand::Kind::Elem:
    return canon(Op.Value) == CanonElem;
  case InterOperand::Kind::Var:
    return Cond.Sol[Cond.Comp[Op.Value]].contains(CanonElem);
  case InterOperand::Kind::VarUnion:
    for (EffVar V : Op.Union)
      if (Cond.Sol[Cond.Comp[V]].contains(CanonElem))
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
  Conds.push_back(std::move(C));
  return static_cast<uint32_t>(Conds.size() - 1);
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
void ConstraintSystem::regroup(const std::vector<std::pair<EffVar, T>> &Log,
                               VarGroups<T> &G, bool KeepLogIdx) const {
  if (G.Vars == NumVars && G.Logged == Log.size())
    return;
  countingSort(
      Log.size(), NumVars, [&](size_t I) { return Log[I].first; },
      [&](size_t I) { return Log[I].second; }, G.Start, G.Items,
      KeepLogIdx ? &G.LogIdx : nullptr);
  G.Vars = NumVars;
  G.Logged = Log.size();
}

const ConstraintSystem::VarGroups<EffVar> &
ConstraintSystem::outEdges() const {
  regroup(EdgeLog, OutEdgeView, TrackOrigins);
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

//===----------------------------------------------------------------------===//
// SCC condensation
//===----------------------------------------------------------------------===//

void ConstraintSystem::ensureCondensed() const {
  if (!Cond.Valid)
    rebuildCondensation();
}

void ConstraintSystem::rebuildCondensation() const {
  Span Sp("solver-condense");
  const VarGroups<EffVar> &Out = outEdges();
  const VarGroups<Feed> &Feeds = outInters();

  // Map variables to components. Baseline mode keeps the identity
  // mapping; otherwise Tarjan over the plain-edge graph (intersections
  // are not collapsed: a cycle through an I node does not imply solution
  // equality).
  std::vector<uint32_t> NewComp;
  uint32_t NumComps;
  if (Baseline) {
    NewComp.resize(NumVars);
    for (uint32_t V = 0; V < NumVars; ++V)
      NewComp[V] = V;
    NumComps = NumVars;
  } else {
    // Tarjan reads the per-variable edge view in place.
    TarjanSCC SCC(Out, NumVars);
    NewComp = std::move(SCC.Comp);
    NumComps = SCC.NumComps;
  }

  // Component-level CSR adjacency: plain edges with intra-component
  // edges dropped, and the (intersection, side) feed lists. CSR packing
  // keeps each component's fanout contiguous for the propagation and
  // DFS inner loops. Counting sort straight off the edge view (count,
  // prefix, fill) -- no intermediate pair list.
  Adjacency CAdj;
  CAdj.Start.assign(NumComps + 1, 0);
  for (uint32_t V = 0; V < NumVars; ++V)
    for (EffVar W : Out.of(V))
      if (NewComp[V] != NewComp[W])
        ++CAdj.Start[NewComp[V] + 1];
  for (uint32_t C = 0; C < NumComps; ++C)
    CAdj.Start[C + 1] += CAdj.Start[C];
  CAdj.Targets.resize(CAdj.Start[NumComps]);
  {
    std::vector<uint32_t> Fill(CAdj.Start.begin(), CAdj.Start.end() - 1);
    for (uint32_t V = 0; V < NumVars; ++V)
      for (EffVar W : Out.of(V))
        if (NewComp[V] != NewComp[W])
          CAdj.Targets[Fill[NewComp[V]]++] = NewComp[W];
  }

  std::vector<uint32_t> InterStart(NumComps + 1, 0);
  for (uint32_t V = 0; V < NumVars; ++V)
    InterStart[NewComp[V] + 1] += static_cast<uint32_t>(Feeds.of(V).size());
  for (uint32_t C = 0; C < NumComps; ++C)
    InterStart[C + 1] += InterStart[C];
  std::vector<Feed> InterFeeds(InterStart[NumComps]);
  {
    std::vector<uint32_t> Fill(InterStart.begin(), InterStart.end() - 1);
    for (uint32_t V = 0; V < NumVars; ++V)
      for (Feed F : Feeds.of(V))
        InterFeeds[Fill[NewComp[V]]++] = F;
  }

  // Propagation's feeds, grouped per component by side (see ProbeStart),
  // and one representative variable per component for the holder index.
  std::vector<uint32_t> ProbeStart, ProbeFeeds;
  std::vector<EffVar> Rep;
  if (!Baseline) {
    auto Slot = [&](uint32_t V, Feed F) {
      const InterNode &N = Inters[F.first];
      const InterOperand &Other = F.second == 0 ? N.B : N.A;
      return 3 * NewComp[V] +
             (Other.K == InterOperand::Kind::Elem ? 2u : F.second);
    };
    ProbeStart.assign(3 * NumComps + 1, 0);
    for (uint32_t V = 0; V < NumVars; ++V)
      for (Feed F : Feeds.of(V))
        ++ProbeStart[Slot(V, F) + 1];
    for (uint32_t S = 0; S < 3 * NumComps; ++S)
      ProbeStart[S + 1] += ProbeStart[S];
    ProbeFeeds.resize(ProbeStart.back());
    std::vector<uint32_t> Fill(ProbeStart.begin(), ProbeStart.end() - 1);
    for (uint32_t V = 0; V < NumVars; ++V)
      for (Feed F : Feeds.of(V))
        ProbeFeeds[Fill[Slot(V, F)]++] = F.first;
    Rep.assign(NumComps, InvalidEffVar);
    for (uint32_t V = NumVars; V-- > 0;)
      Rep[NewComp[V]] = V;
  }

  // Carry solver state across the rebuild. Structure only grows, so all
  // members of an old component land in one new component; a new
  // component folding several old ones together re-queues its whole
  // (unioned) set, since elements from one old component were never
  // propagated along the other's out-edges.
  std::vector<SmallElemSet> NewSol(NumComps);
  std::vector<std::vector<uint32_t>> NewPending(NumComps);
  std::vector<uint8_t> Folded(NumComps, 0);
  std::vector<uint8_t> Merged(NumComps, 0);
  if (!Cond.Comp.empty()) {
    const uint32_t OldVars = static_cast<uint32_t>(Cond.Comp.size());
    std::vector<uint8_t> Taken(Cond.NumComps, 0);
    for (uint32_t V = 0; V < OldVars && V < NumVars; ++V) {
      uint32_t OC = Cond.Comp[V];
      if (Taken[OC])
        continue;
      Taken[OC] = 1;
      uint32_t NC = NewComp[V];
      if (!Folded[NC]) {
        Folded[NC] = 1;
        NewSol[NC] = std::move(Cond.Sol[OC]);
      } else {
        Merged[NC] = 1;
        for (uint32_t E : Cond.Sol[OC])
          NewSol[NC].insert(E);
      }
      NewPending[NC].insert(NewPending[NC].end(), Cond.Pending[OC].begin(),
                            Cond.Pending[OC].end());
    }
  }
  for (uint32_t C = 0; C < NumComps; ++C)
    if (Merged[C]) {
      NewPending[C].clear();
      for (uint32_t E : NewSol[C])
        NewPending[C].push_back(E);
    }

  Cond.Comp = std::move(NewComp);
  Cond.NumComps = NumComps;
  Cond.EdgeStart = std::move(CAdj.Start);
  Cond.EdgeTargets = std::move(CAdj.Targets);
  Cond.InterStart = std::move(InterStart);
  Cond.InterFeeds = std::move(InterFeeds);
  Cond.ProbeStart = std::move(ProbeStart);
  Cond.ProbeFeeds = std::move(ProbeFeeds);
  Cond.Rep = std::move(Rep);
  Cond.Overflow.clear();
  Cond.TopoOrdered = true;
  Cond.Sol = std::move(NewSol);
  Cond.Pending = std::move(NewPending);
  Cond.Dirty.assign(NumComps, 0);
  Cond.InScope.assign(NumComps, 0);
  for (uint32_t V = 0; V < NumVars; ++V)
    if (InScope[V])
      Cond.InScope[Cond.Comp[V]] = 1;
  Cond.VisitEpoch.assign(NumComps, 0);
  Cond.SideEpoch.assign(Inters.size(), 0);
  Cond.SideMask.assign(Inters.size(), 0);
  Cond.Epoch = 0;
  Cond.IndexValid = false;
  Worklist.clear();
  for (uint32_t C = 0; C < NumComps; ++C)
    if (!Cond.Pending[C].empty()) {
      Cond.Dirty[C] = 1;
      Worklist.push_back(C);
    }
  Cond.Valid = true;
}

bool ConstraintSystem::compEdgeExists(uint32_t From, uint32_t To) const {
  const uint32_t *Begin = Cond.EdgeTargets.data() + Cond.EdgeStart[From];
  const uint32_t *End = Cond.EdgeTargets.data() + Cond.EdgeStart[From + 1];
  const std::vector<uint32_t> &Extra = overflowOf(From);
  return std::find(Begin, End, To) != End ||
         std::find(Extra.begin(), Extra.end(), To) != Extra.end();
}

bool ConstraintSystem::compReaches(uint32_t From, uint32_t To) const {
  // Tarjan numbers components so that every condensation edge runs from
  // a higher index to a lower one. While no overflow edge has broken
  // that order, a path only descends: nothing below To can reach it.
  const bool Ordered = Cond.TopoOrdered;
  if (Ordered && From < To)
    return false;
  const uint32_t Epoch = nextEpoch();
  std::vector<uint32_t> &Work = Cond.WorkScratch;
  Work.clear();
  auto Visit = [&](uint32_t C) {
    if (Cond.VisitEpoch[C] == Epoch || (Ordered && C < To))
      return;
    Cond.VisitEpoch[C] = Epoch;
    Work.push_back(C);
  };
  Visit(From);
  while (!Work.empty()) {
    uint32_t C = Work.back();
    Work.pop_back();
    if (C == To)
      return true;
    for (uint32_t E = Cond.EdgeStart[C]; E < Cond.EdgeStart[C + 1]; ++E)
      Visit(Cond.EdgeTargets[E]);
    for (uint32_t T : overflowOf(C))
      Visit(T);
  }
  return false;
}

uint32_t ConstraintSystem::nextEpoch() const {
  if (++Cond.Epoch == 0) {
    // Epoch wrap: invalidate all stamps once, then restart at 1.
    std::fill(Cond.VisitEpoch.begin(), Cond.VisitEpoch.end(), 0);
    std::fill(Cond.SideEpoch.begin(), Cond.SideEpoch.end(), 0);
    Cond.Epoch = 1;
  }
  return Cond.Epoch;
}

void ConstraintSystem::ensureCheckSatIndex() const {
  if (Cond.IndexValid && Cond.IndexMergeStamp == Locs.numClassesMerged() &&
      Cond.IndexSeedStamp == SeedLog.size())
    return;
  Cond.SeedComps.clear();
  Cond.ElemFeeds.clear();
  const VarGroups<uint32_t> &Seeds = seeds();
  for (uint32_t V = 0; V < NumVars; ++V)
    for (uint32_t S : Seeds.of(V))
      Cond.SeedComps[canon(S)].push_back(Cond.Comp[V]);
  for (uint32_t I = 0; I < Inters.size(); ++I) {
    const InterNode &N = Inters[I];
    if (N.A.K == InterOperand::Kind::Elem)
      Cond.ElemFeeds[canon(N.A.Value)].push_back({I, 0});
    if (N.B.K == InterOperand::Kind::Elem)
      Cond.ElemFeeds[canon(N.B.Value)].push_back({I, 1});
  }
  Cond.IndexMergeStamp = Locs.numClassesMerged();
  Cond.IndexSeedStamp = SeedLog.size();
  Cond.IndexValid = true;
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
    ensureCondensed();
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

/// The optimized query: component-granularity DFS over the CSR
/// condensation, sources pulled from the seed/element-operand indexes,
/// epoch-stamped scratch instead of per-query allocation and clearing.
bool ConstraintSystem::reachesCollapsed(uint32_t C, EffVar Target) const {
  const uint32_t Epoch = nextEpoch();
  const uint32_t TC = Target < NumVars ? Cond.Comp[Target] : ~0u;
  std::vector<uint32_t> &Work = Cond.WorkScratch;
  Work.clear();

  bool Found = false;
  auto Visit = [&](uint32_t Comp) {
    if (Cond.VisitEpoch[Comp] == Epoch)
      return;
    Cond.VisitEpoch[Comp] = Epoch;
    ++Stats.CheckSatVisited;
    if (Comp == TC)
      Found = true;
    Work.push_back(Comp);
  };
  auto OrMask = [&](uint32_t I, uint8_t Bit) -> uint8_t {
    if (Cond.SideEpoch[I] != Epoch) {
      Cond.SideEpoch[I] = Epoch;
      Cond.SideMask[I] = 0;
    }
    return Cond.SideMask[I] |= Bit;
  };

  // Constant (element) intersection operands, from the index.
  if (auto It = Cond.ElemFeeds.find(C); It != Cond.ElemFeeds.end())
    for (auto [I, Side] : It->second)
      if (OrMask(I, static_cast<uint8_t>(1u << Side)) == 3)
        Visit(Cond.Comp[Inters[I].Out]);
  if (Found)
    return true;

  // Seed sources, from the index.
  if (auto It = Cond.SeedComps.find(C); It != Cond.SeedComps.end())
    for (uint32_t Comp : It->second)
      Visit(Comp);

  while (!Work.empty() && !Found) {
    budgetStep();
    uint32_t Comp = Work.back();
    Work.pop_back();
    for (uint32_t E = Cond.EdgeStart[Comp]; E < Cond.EdgeStart[Comp + 1]; ++E)
      Visit(Cond.EdgeTargets[E]);
    for (uint32_t T : overflowOf(Comp))
      Visit(T);
    for (uint32_t F = Cond.InterStart[Comp]; F < Cond.InterStart[Comp + 1];
         ++F) {
      auto [I, Side] = Cond.InterFeeds[F];
      if (OrMask(I, static_cast<uint8_t>(1u << Side)) == 3)
        Visit(Cond.Comp[Inters[I].Out]);
    }
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
  ensureCondensed();
  insertElemComp(Cond.Comp[V], ElemBits);
}

void ConstraintSystem::insertElemComp(uint32_t C, uint32_t ElemBits) {
  if (!Cond.InScope[C])
    return;
  if (!Cond.Sol[C].insert(ElemBits))
    return;
  ++Stats.PropagatedElems;
  Cond.Pending[C].push_back(ElemBits);
  if (!Cond.Dirty[C]) {
    Cond.Dirty[C] = 1;
    Worklist.push_back(C);
  }
}

void ConstraintSystem::propagate() {
  Span Sp("propagate");
  ensureCondensed();
  if (!Baseline)
    syncHolders();
  std::vector<uint32_t> Batch;
  while (!Worklist.empty()) {
    uint32_t C = Worklist.back();
    Worklist.pop_back();
    Cond.Dirty[C] = 0;
    Batch.clear();
    Batch.swap(Cond.Pending[C]);
    // Propagation is the solver's dominant cost; charge the budget per
    // pending element flushed, not per pop.
    budgetStep(Batch.size() + 1);
    const std::vector<uint32_t> &Extra = overflowOf(C);
    for (uint32_t E : Batch) {
      for (uint32_t T = Cond.EdgeStart[C]; T < Cond.EdgeStart[C + 1]; ++T)
        insertElemComp(Cond.EdgeTargets[T], E);
      for (uint32_t T : Extra)
        insertElemComp(T, E);
      flushToIntersections(C, E);
    }
  }
}

void ConstraintSystem::probe(uint32_t Inter, const InterOperand &Other,
                             uint32_t Elem) {
  ++Stats.InterProbes;
  if (operandContains(Other, Elem))
    insertElemComp(Cond.Comp[Inters[Inter].Out], Elem);
}

void ConstraintSystem::flushToIntersections(uint32_t C, uint32_t E) {
  if (Baseline) {
    // Every feed probes its opposite operand.
    for (uint32_t F = Cond.InterStart[C]; F < Cond.InterStart[C + 1]; ++F) {
      auto [I, Side] = Cond.InterFeeds[F];
      probe(I, Side == 0 ? Inters[I].B : Inters[I].A, E);
    }
    return;
  }
  const uint32_t *Start = Cond.ProbeStart.data() + 3 * C;
  for (uint8_t S = 0; S < 2; ++S) {
    const uint32_t Feeds = Start[S + 1] - Start[S];
    if (Feeds == 0)
      continue;
    const uint8_t O = 1 - S;
    if (Feeds <= Holders.FeedSum[O][E]) {
      // C's own side-S feeds are the cheaper side: probe their opposite
      // operands, as the baseline does.
      for (uint32_t F = Start[S]; F < Start[S + 1]; ++F) {
        const InterNode &N = Inters[Cond.ProbeFeeds[F]];
        probe(Cond.ProbeFeeds[F], S == 0 ? N.B : N.A, E);
      }
    } else {
      // Only intersections whose other side has already flushed E can
      // newly gain it; the rest are found when that side flushes it.
      // Probe the side-S operand of each holder's side-O feeds.
      for (uint32_t Node = Holders.Head[O][E]; Node != HolderIndex::None;
           Node = Holders.Nodes[Node].second) {
        const uint32_t H = Cond.Comp[Holders.Nodes[Node].first];
        const uint32_t *HStart = Cond.ProbeStart.data() + 3 * H;
        for (uint32_t F = HStart[O]; F < HStart[O + 1]; ++F) {
          const InterNode &N = Inters[Cond.ProbeFeeds[F]];
          probe(Cond.ProbeFeeds[F], S == 0 ? N.A : N.B, E);
        }
      }
    }
    recordHolder(C, S, E, Feeds);
  }
  // An element operand never flushes, so these feeds always probe it.
  for (uint32_t F = Start[2]; F < Start[3]; ++F) {
    const InterNode &N = Inters[Cond.ProbeFeeds[F]];
    probe(Cond.ProbeFeeds[F],
          N.A.K == InterOperand::Kind::Elem ? N.A : N.B, E);
  }
}

void ConstraintSystem::recordHolder(uint32_t C, uint8_t Side, uint32_t E,
                                    uint32_t Feeds) {
  Holders.Nodes.emplace_back(Cond.Rep[C], Holders.Head[Side][E]);
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
  // A new intersection can give a component feeds for elements it
  // flushed without any, which the index never recorded. Recording every
  // element each feeding component now holds keeps the invariant (each
  // flushed element recorded, each recorded one held); elements still
  // pending are just recorded twice.
  const uint32_t NumInters = static_cast<uint32_t>(Inters.size());
  if (Holders.Propagated && Holders.NumInters != NumInters) {
    Holders.Nodes.clear();
    for (uint8_t S = 0; S < 2; ++S) {
      std::fill(Holders.Head[S].begin(), Holders.Head[S].end(),
                HolderIndex::None);
      std::fill(Holders.FeedSum[S].begin(), Holders.FeedSum[S].end(), 0);
    }
    for (uint32_t C = 0; C < Cond.NumComps; ++C)
      for (uint8_t S = 0; S < 2; ++S) {
        const uint32_t Feeds =
            Cond.ProbeStart[3 * C + S + 1] - Cond.ProbeStart[3 * C + S];
        if (Feeds != 0)
          for (uint32_t E : Cond.Sol[C])
            recordHolder(C, S, E, Feeds);
      }
  }
  Holders.NumInters = NumInters;
  Holders.Propagated = true;
}

void ConstraintSystem::recanonicalize() {
  Span Sp("recanonicalize");
  budgetStep(NumVars);
  ensureCondensed();
  // Rebuild solution sets with canonical elements. Only components whose
  // set actually changed (an element mentioned a just-unified location)
  // need re-pushing: intersections with unchanged inputs cannot produce
  // new outputs, and edges propagate set contents, which are unchanged.
  Worklist.clear();
  for (uint32_t C = 0; C < Cond.NumComps; ++C) {
    if (!Cond.InScope[C])
      continue;
    bool Changed = false;
    for (uint32_t E : Cond.Sol[C])
      if (canon(E) != E) {
        Changed = true;
        break;
      }
    if (!Changed) {
      // Keep any elements queued by just-fired conditional actions; they
      // are already canonical and still need to flow.
      if (!Cond.Pending[C].empty()) {
        Cond.Dirty[C] = 1;
        Worklist.push_back(C);
      }
      continue;
    }
    SmallElemSet Fresh;
    Fresh.reserve(Cond.Sol[C].size());
    for (uint32_t E : Cond.Sol[C])
      Fresh.insert(canon(E));
    Cond.Sol[C] = std::move(Fresh);
    Cond.Pending[C].clear();
    for (uint32_t E : Cond.Sol[C])
      Cond.Pending[C].push_back(E);
    Cond.Dirty[C] = 1;
    Worklist.push_back(C);
  }
}

void ConstraintSystem::computeScope(const std::vector<EffVar> &QueryVars) {
  if (QueryVars.empty()) {
    std::fill(InScope.begin(), InScope.end(), 1);
    return;
  }
  // Backwards search (Section 6.2): only the part of the graph that can
  // flow into a query variable, a conditional's tested variable, or a
  // variable a conditional action writes needs least-solution computation.
  std::fill(InScope.begin(), InScope.end(), 0);
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
    for (EffVar V : C.AnyOf)
      Mark(V);
    for (const CondAction &A : C.Actions)
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
    if (!C.AnyOf.empty())
      return memberAnyKindAnyOf(C.Rho, C.AnyOf);
    return memberAnyKind(C.Rho, C.Var);
  case CondConstraint::Premise::SideEffectNonEmpty:
    for (uint32_t E : Cond.Sol[Cond.Comp[C.Var]]) {
      EffectKind K = EffectElem(E).kind();
      if (K == EffectKind::Write || K == EffectKind::Alloc)
        return true;
    }
    return false;
  case CondConstraint::Premise::ReadWriteOverlap: {
    const SmallElemSet &SideSol = Cond.Sol[Cond.Comp[C.Var]];
    for (uint32_t E : Cond.Sol[Cond.Comp[C.VarA]]) {
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
  ensureCondensed();
  if (!recordEdge(From, To))
    return;
  uint32_t CA = Cond.Comp[From], CB = Cond.Comp[To];
  if (Baseline) {
    // Identity components: the baseline rebuilds after every edge.
    rebuildCondensation();
  } else if (CA == CB || compEdgeExists(CA, CB)) {
    // One component, or an edge the condensation already has (a failed
    // confine? fires one action list from up to four conditionals):
    // the condensation is unchanged.
  } else if (compReaches(CB, CA)) {
    // The edge closes a cycle and folds components together; the
    // rebuild carries and re-queues the merged solutions.
    rebuildCondensation();
    CA = Cond.Comp[From];
    CB = Cond.Comp[To];
  } else {
    // No cycle: the partition is unchanged, so the edge goes on the
    // source component's overflow list until the next rebuild.
    if (Cond.Overflow.empty())
      Cond.Overflow.resize(Cond.NumComps);
    Cond.Overflow[CA].push_back(CB);
    Cond.TopoOrdered = Cond.TopoOrdered && CB < CA;
  }
  // If the endpoints stay separate, flow the already-computed solution
  // across the new edge explicitly (inserting into CB leaves Sol[CA]
  // untouched).
  if (CA != CB)
    for (uint32_t E : Cond.Sol[CA])
      insertElemComp(CB, E);
}

void ConstraintSystem::solve(const std::vector<EffVar> &QueryVars) {
  Span Sp("solve");
  computeScope(QueryVars);
  ensureCondensed();
  // Scope may differ between solve() calls; re-derive the component
  // masks from the variable masks (uniform within a component: SCC
  // members are mutually reachable, so the backwards closure marks all
  // of them or none).
  std::fill(Cond.InScope.begin(), Cond.InScope.end(), 0);
  for (uint32_t V = 0; V < NumVars; ++V)
    if (InScope[V])
      Cond.InScope[Cond.Comp[V]] = 1;
  // Edges and feeds added since the last solve() must also carry what
  // their sources already hold: re-queue every solved set (all empty
  // before the first solve).
  if (EdgeLog.size() + FeedLog.size() != SolvedLogs)
    for (uint32_t C = 0; C < Cond.NumComps; ++C) {
      if (!Cond.InScope[C] || Cond.Sol[C].empty())
        continue;
      Cond.Pending[C].clear();
      for (uint32_t E : Cond.Sol[C])
        Cond.Pending[C].push_back(E);
      if (!Cond.Dirty[C]) {
        Cond.Dirty[C] = 1;
        Worklist.push_back(C);
      }
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
      for (const CondAction &A : C.Actions)
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
  ensureCondensed();
  return Cond.Sol[Cond.Comp[V]];
}

bool ConstraintSystem::member(EffectKind K, LocId Rho, EffVar V) const {
  ensureCondensed();
  return Cond.Sol[Cond.Comp[V]].contains(
      EffectElem(K, Locs.find(Rho)).bits());
}

bool ConstraintSystem::memberAnyKind(LocId Rho, EffVar V) const {
  return member(EffectKind::Read, Rho, V) ||
         member(EffectKind::Write, Rho, V) ||
         member(EffectKind::Alloc, Rho, V);
}

bool ConstraintSystem::memberAnyKindAnyOf(
    LocId Rho, const std::vector<EffVar> &Vs) const {
  for (EffVar V : Vs)
    if (memberAnyKind(Rho, V))
      return true;
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
  ensureCondensed();
  // Report per *variable*, not per component, so the effect-set-size
  // distribution is unchanged by the collapse.
  static const MetricId SetSize = metricId("effect-set-size");
  for (uint32_t V = 0; V < NumVars; ++V)
    if (InScope[V])
      obsHistogram(SetSize, Cond.Sol[Cond.Comp[V]].size());
}
