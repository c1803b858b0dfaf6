//===- ConstraintSystem.h - Effect constraints and solving ----*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The effect constraint system of Section 4, extended with the
/// read/write/alloc effect kinds of Section 6.1 and the conditional
/// constraints of Sections 5 and 6.
///
/// After normalization (Figure 4b, see EffectTerm.h) constraints have the
/// normal form
///
/// \code
///   {X(rho)} <= eps   |   eps1 <= eps2   |   (M1 n M2) <= eps
///   M := {X(rho)} | eps         X := read | write | alloc
/// \endcode
///
/// viewed as a directed graph with element sources, effect-variable nodes,
/// and in-degree-2 intersection nodes (the paper's I nodes).
///
/// Two solvers are provided:
///
///  * CHECK-SAT (Figure 5): a per-source modified DFS answering "does
///    element X(rho) reach variable eps in the least solution?" in O(n).
///    Restrict *checking* issues O(k) such queries, giving the paper's
///    O(kn) bound.
///  * Least-solution propagation: computes the full least solution by
///    worklist propagation, then monitors conditional constraints -- "if
///    rho is accessed in eps, unify rho = rho'" and friends -- firing
///    their actions and re-propagating until a fixpoint. Firing is
///    monotone (solutions only grow, location classes only merge), so the
///    loop terminates; with O(n) conditionals and O(n) work per firing
///    this is the paper's O(n^2) inference algorithm (Section 5).
///
/// Location unification during solving is handled by re-canonicalizing
/// stored elements against the location union-find after each round of
/// firings.
///
/// Constraints are stored in flat append-only logs -- plain edges
/// (from, to), seeds (var, element) and intersection feeds (var,
/// (intersection, side)) -- so creating a variable is a counter bump and
/// adding a constraint is one append, in the linear-time graph build of
/// Section 4. Readers that walk a variable's constraints (the solvers,
/// CHECK-SAT, the backwards scope, provenance replay) use a per-variable
/// CSR view of each log, regrouped by a stable counting sort only when
/// a reader needs it and the log has grown since; stability keeps every
/// variable's constraints in insertion order, so traversal orders (and
/// with them Tarjan numbering and every order-sensitive counter) are
/// those of the insertion sequence.
///
/// Both solvers run over *classes* of variables: every variable on a
/// plain-edge cycle provably has the same least solution, so a
/// union-find over variables (Leader) merges the members of each cycle
/// and solution sets, the propagation worklist and CHECK-SAT's DFS work
/// per class, keyed by the class's lowest variable. Nothing is copied
/// into a component graph: a class walks its members' lists in the
/// per-variable views in place. Tarjan runs once per solve (the first
/// reader after the graph grew); its pop order is kept as each class's
/// rank, so every edge between classes descends and some "does the
/// target's class reach the source's?" checks answer in O(1). An edge
/// added by a fired conditional goes on its source class's fired list,
/// which propagation and CHECK-SAT walk after the members' edges; only
/// an edge that closes a cycle re-runs Tarjan, which merges the classes
/// on the new cycle. On an acyclic graph -- every module with (Down) on
/// -- each class is one variable and the union-find is never allocated.
///
/// Propagation's intersection feeds are output-sensitive. A hub such as
/// the globals environment feeds one side of every function's (Down)
/// intersection, so probing the opposite operand of each of its feeds for
/// every element it flushes costs (elements x functions), nearly all
/// misses. Instead a per-element, per-side *holder index* lists the
/// classes that have already flushed the element and feed that side,
/// with their summed feed counts. A class flushing an element on side s
/// either probes its own side-s feeds or walks the side-(1-s) holders'
/// feeds, whichever is smaller, then joins the side-s holders. Each
/// (intersection, element) pair is thus found at the later of its two
/// sides' first flush, so the least solution is unchanged. Holders are
/// recorded by class leader; merges only grow classes, so a holder
/// resolves through the union-find. Feeds whose opposite operand is a
/// constant element keep direct probing: an element operand never
/// flushes.
///
/// Setting LNA_SOLVER_BASELINE=1 in the environment disables the
/// collapse (every class stays one variable), the CHECK-SAT source
/// indexes (per-query full scans) and the holder index (every feed
/// probed) -- the pre-optimization algorithm, kept for byte-identity
/// diffs and the bench_solver before/after comparison. It reads the same
/// logs and per-variable views: there is one storage path.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_EFFECTS_CONSTRAINTSYSTEM_H
#define LNA_EFFECTS_CONSTRAINTSYSTEM_H

#include "alias/Types.h"
#include "effects/SmallElemSet.h"
#include "obs/Provenance.h"

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace lna {

/// The kinds of effects, per Section 6.1.
enum class EffectKind : uint8_t {
  Read = 0,
  Write = 1,
  Alloc = 2,
};

/// An effect variable (the paper's epsilon).
using EffVar = uint32_t;
constexpr EffVar InvalidEffVar = ~0u;

/// An effect element X(rho), stored canonicalized as (loc << 2) | kind.
class EffectElem {
public:
  EffectElem(EffectKind K, LocId L)
      : Bits((L << 2) | static_cast<uint32_t>(K)) {}
  explicit EffectElem(uint32_t Bits) : Bits(Bits) {}

  EffectKind kind() const { return static_cast<EffectKind>(Bits & 3); }
  LocId loc() const { return Bits >> 2; }
  uint32_t bits() const { return Bits; }

  friend bool operator==(EffectElem A, EffectElem B) {
    return A.Bits == B.Bits;
  }

private:
  uint32_t Bits;
};

/// An intersection operand: a singleton element, a variable, or a
/// *virtual union* of variables. The union form implements the paper's
/// memoization of locs(Gamma) (Section 4): environment/type location sets
/// are shared and consulted in place instead of being copied into a
/// materialized union variable, which would cost |locs(Gamma)| space and
/// time per scope.
struct InterOperand {
  enum class Kind : uint8_t { Elem, Var, VarUnion };
  Kind K;
  uint32_t Value = 0; ///< elem bits or EffVar
  std::vector<EffVar> Union; ///< members (VarUnion)

  static InterOperand elem(EffectElem E) {
    return {Kind::Elem, E.bits(), {}};
  }
  static InterOperand var(EffVar V) { return {Kind::Var, V, {}}; }
  static InterOperand varUnion(std::vector<EffVar> Vs) {
    return {Kind::VarUnion, 0, std::move(Vs)};
  }
};

/// An action fired by a conditional constraint.
struct CondAction {
  enum class Kind : uint8_t {
    UnifyLocs,        ///< unify(A, B)
    AddEdge,          ///< var A <= var B
    AddElemAllKinds,  ///< {read,write,alloc}(A) <= var B
    AddElemReadWrite, ///< {read,write}(A) <= var B
  };
  Kind K;
  uint32_t A = 0;
  uint32_t B = 0;
};

/// A range of one of a ConstraintSystem's flat pools (conditional
/// actions or AnyOf variables).
struct PoolRange {
  uint32_t Begin = 0;
  uint32_t Size = 0;
};

/// A conditional constraint (Sections 5 and 6). When the premise becomes
/// true in the current least solution, the actions fire (once).
struct CondConstraint {
  enum class Premise : uint8_t {
    /// any-kind access: exists X with X(Rho) in sol(Var) (or in the
    /// solution of any member of AnyOf, when AnyOf is nonempty)
    LocInVar,
    /// exists rho'' with write(rho'') or alloc(rho'') in sol(Var)
    SideEffectNonEmpty,
    /// exists rho'' with read(rho'') in sol(VarA) and write(rho'') or
    /// alloc(rho'') in sol(Var)
    ReadWriteOverlap,
  };
  Premise P;
  LocId Rho = InvalidLocId; ///< for LocInVar
  EffVar VarA = InvalidEffVar; ///< reads side for ReadWriteOverlap
  EffVar Var = InvalidEffVar;
  /// For LocInVar: when nonempty, the premise tests membership in the
  /// *union* of these variables' solutions (shared environment/type sets,
  /// never materialized). From ConstraintSystem::addVarList.
  PoolRange AnyOf;
  /// From ConstraintSystem::addActions; conditionals that fail the same
  /// way (a confine? candidate's four) share one range.
  PoolRange Actions;
  bool Fired = false;
  /// Provenance of the construct that generated this conditional
  /// (stamped by setOrigin when origin tracking is on); constraints the
  /// firing adds inherit it, so explain paths can cross a firing.
  SourceLoc OriginLoc{};
  const char *OriginNote = nullptr;
};

/// Solver statistics (used by the scaling and ablation benchmarks).
struct SolverStats {
  uint64_t PropagatedElems = 0;
  uint64_t Rounds = 0;
  uint64_t CondFirings = 0;
  uint64_t CheckSatQueries = 0;
  uint64_t CheckSatVisited = 0;
  /// Not reported; kept for the solver's regression tests.
  /// Intersection-operand membership tests made by propagation.
  uint64_t InterProbes = 0;
  /// Variables in another variable's class after the last Tarjan pass:
  /// zero on an acyclic graph.
  uint64_t CollapsedVars = 0;
};

/// The normal-form effect constraint graph and its solvers.
class ConstraintSystem {
public:
  explicit ConstraintSystem(LocTable &Locs);

  LocTable &locs() { return Locs; }

  /// Creates a fresh effect variable.
  EffVar makeVar();
  uint32_t numVars() const { return NumVars; }

  /// {X(rho)} <= V.
  void addElement(EffectKind K, LocId Rho, EffVar V);
  /// {read,write,alloc}(rho) <= V (used for locs(t) sets, where any kind
  /// of access counts).
  void addElementAllKinds(LocId Rho, EffVar V);
  /// From <= To.
  void addEdge(EffVar From, EffVar To);
  /// (A n B) <= Out.
  void addIntersection(InterOperand A, InterOperand B, EffVar Out);
  /// Registers a conditional constraint; returns its index.
  uint32_t addConditional(CondConstraint C);
  /// Copies actions or AnyOf variables into the flat pools that
  /// conditionals refer to.
  PoolRange addActions(std::span<const CondAction> Actions);
  PoolRange addActions(std::initializer_list<CondAction> Actions) {
    return addActions(std::span(Actions.begin(), Actions.size()));
  }
  PoolRange addVarList(std::span<const EffVar> Vars);
  std::span<const CondAction> actions(const CondConstraint &C) const {
    return {ActionPool.data() + C.Actions.Begin, C.Actions.Size};
  }
  std::span<const EffVar> anyOf(const CondConstraint &C) const {
    return {AnyOfPool.data() + C.AnyOf.Begin, C.AnyOf.Size};
  }
  /// Reserves room for conditionals and their pooled actions and AnyOf
  /// variables.
  void reserveConditionals(size_t NumConds, size_t NumActions,
                           size_t NumAnyOf);

  uint32_t numEdges() const { return static_cast<uint32_t>(EdgeLog.size()); }
  uint32_t numIntersections() const {
    return static_cast<uint32_t>(Inters.size());
  }
  const std::vector<CondConstraint> &conditionals() const { return Conds; }

  //===--------------------------------------------------------------===//
  // CHECK-SAT (Figure 5): per-source reachability, no conditionals.
  //===--------------------------------------------------------------===//

  /// True iff X(rho) is in sol(Target) in the least solution of the
  /// unconditional constraints. O(n) per query worst case; the collapsed
  /// graph, seed/element indexes, and epoch-stamped scratch make the
  /// common sparse query O(reached subgraph) with no allocation.
  bool reaches(EffectKind K, LocId Rho, EffVar Target) const;
  /// True iff any of the three kinds of rho reaches Target.
  bool reachesAnyKind(LocId Rho, EffVar Target) const;

  //===--------------------------------------------------------------===//
  // Least-solution propagation with conditional constraints.
  //===--------------------------------------------------------------===//

  /// Computes the least solution, firing conditional constraints until a
  /// fixpoint. If \p QueryVars is nonempty, only the subgraph that can
  /// reach a query variable or a conditional's variable is propagated
  /// (the backwards-search optimization of Section 6.2); solution() is
  /// then only meaningful for those variables.
  void solve(const std::vector<EffVar> &QueryVars = {});

  /// The least-solution element set of \p V (canonical elements). Only
  /// valid after solve(). Variables on a common plain-edge cycle share
  /// one physical set, their class's.
  const SmallElemSet &solution(EffVar V) const;

  /// Membership queries against the computed solution. Canonicalize
  /// through the location union-find.
  bool member(EffectKind K, LocId Rho, EffVar V) const;
  bool memberAnyKind(LocId Rho, EffVar V) const;
  /// Membership in the union of several variables' solutions.
  bool memberAnyKindAnyOf(LocId Rho, std::span<const EffVar> Vs) const;

  const SolverStats &stats() const { return Stats; }

  /// Renders sol(V) for debugging.
  std::string solutionToString(EffVar V) const;

  //===--------------------------------------------------------------===//
  // Provenance (--explain) and metrics (obs layer).
  //===--------------------------------------------------------------===//

  /// Turns on origin stamping. Must be called before any constraints are
  /// added (the origin vectors parallel the constraint storage).
  void enableOriginTracking() { TrackOrigins = true; }
  bool originTrackingEnabled() const { return TrackOrigins; }

  /// Sets the origin stamped onto subsequently added seeds, edges,
  /// intersections, and conditionals: the source location of the program
  /// construct being translated and a note naming its role. No-op unless
  /// origin tracking is on. \p Note must be a string literal.
  void setOrigin(SourceLoc Loc, const char *Note) {
    if (TrackOrigins) {
      CurOrigin.Loc = Loc;
      CurOrigin.Note = Note;
    }
  }

  /// Reconstructs how X(rho) reaches sol(Target): a breadth-first replay
  /// of the reachability search recording parent pointers, rendered as
  /// the chain of constraint origins from the edge into \p Target down
  /// to the seeding access. Empty if unreachable (or if origin tracking
  /// was off, in which case steps carry no locations). Covers
  /// constraints added by fired conditionals, since firing physically
  /// adds them to the graph. Runs on the *uncollapsed* graph so the
  /// witness chain matches the program's constraints one-to-one.
  std::vector<ExplainStep> explainReach(EffectKind K, LocId Rho,
                                        EffVar Target) const;
  /// explainReach for the first of read/write/alloc that reaches.
  std::vector<ExplainStep> explainReachAnyKind(LocId Rho, EffVar Target) const;

  /// Records the out-degree of every variable node into the current
  /// thread's metrics registry ("constraint-out-degree"); called once
  /// per session after constraint generation.
  void recordGraphMetrics() const;
  /// Records the least-solution size of every in-scope variable
  /// ("effect-set-size"); only meaningful after solve().
  void recordSolutionMetrics() const;

private:
  /// Where a constraint came from (parallel to the constraint storage;
  /// only filled when TrackOrigins).
  struct Origin {
    SourceLoc Loc{};
    const char *Note = nullptr;
  };

  struct InterNode {
    InterOperand A;
    InterOperand B;
    EffVar Out;
    Origin Orig{};
  };

  /// One constraint log grouped per key (the per-variable view):
  /// Items[Start[K]..Start[K + 1]) are key K's entries in insertion
  /// order. Keys and Logged record the key count and log length it was
  /// built from; regroup() rebuilds it when either has grown.
  template <typename T> struct VarGroups {
    std::vector<uint32_t> Start;
    std::vector<T> Items;
    /// Log index of each item, for origin lookup; only kept for the
    /// edge and seed logs while origin tracking is on.
    std::vector<uint32_t> LogIdx;
    uint32_t Keys = 0;
    size_t Logged = 0;

    std::span<const T> of(uint32_t K) const {
      return {Items.data() + Start[K], Items.data() + Start[K + 1]};
    }
    /// Tarjan's adjacency interface.
    const T *begin(uint32_t K) const { return Items.data() + Start[K]; }
    const T *end(uint32_t K) const { return Items.data() + Start[K + 1]; }
  };
  /// An intersection feed: (intersection index, side 0/1).
  using Feed = std::pair<uint32_t, uint8_t>;

  /// FIFO lists of uint32_t values, one per class, threaded through one
  /// node pool: Last[C] is class C's newest node, whose Next closes the
  /// ring back to its oldest, so a list costs one word per class.
  struct RingLists {
    static constexpr uint32_t None = ~0u;
    std::vector<uint32_t> Last;
    std::vector<std::pair<uint32_t, uint32_t>> Nodes; ///< (value, next)

    bool empty(uint32_t C) const { return Last[C] == None; }
    void push(uint32_t C, uint32_t Value) {
      const uint32_t N = static_cast<uint32_t>(Nodes.size());
      if (Last[C] == None) {
        Nodes.emplace_back(Value, N);
      } else {
        Nodes.emplace_back(Value, Nodes[Last[C]].second);
        Nodes[Last[C]].second = N;
      }
      Last[C] = N;
    }
    /// Calls \p Fn on each value of the ring ending at node \p Tail, in
    /// insertion order. \p Fn may push to any list, even the walked
    /// one once it has been detached (its Last reset).
    template <typename FnT>
    static void walk(const RingLists &L, uint32_t Tail, FnT &&Fn) {
      if (Tail == None)
        return;
      for (uint32_t N = L.Nodes[Tail].second;;) {
        const auto [Value, Next] = L.Nodes[N];
        Fn(Value);
        if (N == Tail)
          return;
        N = Next;
      }
    }
    /// Calls \p Fn on each value of class \p C's list, which \p Fn must
    /// not push to.
    template <typename FnT> void forEach(uint32_t C, FnT &&Fn) const {
      walk(*this, Last.empty() ? None : Last[C], Fn);
    }
  };

  /// Propagation's intersection-feed index, keyed by canonical element
  /// bits and side: the classes (by leader) that have flushed the
  /// element and feed that side of some intersection, and their summed
  /// side feed counts. Flat: one node array threaded into per-element
  /// lists. Keys of merged-away locations go stale but are never queried
  /// again: the classes holding them re-flush under the new canonical key.
  struct HolderIndex {
    static constexpr uint32_t None = ~0u;
    std::vector<uint32_t> Head[2];    ///< elem bits -> first node
    std::vector<uint32_t> FeedSum[2]; ///< elem bits -> summed feed counts
    std::vector<std::pair<EffVar, uint32_t>> Nodes; ///< (leader, next node)
    /// Intersections when the index was last synced, and whether any
    /// propagation has run (see syncHolders).
    uint32_t NumInters = 0;
    bool Propagated = false;
  };

  uint32_t canon(uint32_t ElemBits) const {
    EffectElem E(ElemBits);
    return EffectElem(E.kind(), Locs.find(E.loc())).bits();
  }

  /// True if the operand's (union of) solution(s) contains \p CanonElem.
  bool operandContains(const InterOperand &Op, uint32_t CanonElem) const;

  /// Brings \p G up to date with \p Log (see VarGroups); true if it
  /// was regrouped.
  template <typename T>
  bool regroup(const std::vector<std::pair<EffVar, T>> &Log,
               VarGroups<T> &G, bool KeepLogIdx) const;
  /// The per-variable views of the three logs, regrouped if stale. The
  /// edge view absorbs the fired lists when it regroups.
  const VarGroups<EffVar> &outEdges() const;
  const VarGroups<uint32_t> &seeds() const;
  const VarGroups<Feed> &outInters() const;
  /// Propagation's feeds, as intersection indexes keyed by 3V + slot:
  /// variable V's side-0 feeds, side-1 feeds (both with a variable
  /// opposite operand), then feeds whose opposite operand is an element.
  const VarGroups<uint32_t> &probeFeeds() const;

  //===--- Classes ---------------------------------------------------===//

  /// The class of \p V: its lowest member, the key of all class state.
  EffVar find(EffVar V) const { return Leader.empty() ? V : Leader[V]; }
  /// Calls \p Fn on each member of class \p C, ascending.
  template <typename FnT> void forEachMember(EffVar C, FnT &&Fn) const {
    if (NextMember.empty()) {
      Fn(C);
      return;
    }
    for (EffVar M = C; M != InvalidEffVar; M = NextMember[M])
      Fn(M);
  }
  /// Calls \p Fn on the class of each plain-edge target of class \p C:
  /// the members' edges, then the fired list.
  template <typename FnT> void forEachSuccessor(EffVar C, FnT &&Fn) const;
  /// Feeds of class \p C in probeFeeds() slot \p Slot.
  uint32_t classFeeds(EffVar C, uint8_t Slot) const;

  void ensureClasses() const {
    if (!ClassesValid)
      condense();
  }
  /// Runs Tarjan over the variable graph and merges the classes on each
  /// cycle, carrying their solutions; sizes the per-variable state.
  void condense() const;
  /// True if class \p From has an edge to class \p To.
  bool classEdgeExists(EffVar From, EffVar To) const;
  /// True if class \p To is reachable from \p From. Charges no budget
  /// steps, like the pass it stands in for.
  bool classReaches(EffVar From, EffVar To) const;
  /// Starts a new epoch of the stamped DFS scratch.
  uint32_t nextEpoch() const;
  void ensureCheckSatIndex() const;
  bool reachesBaseline(uint32_t CanonElem, EffVar Target) const;
  bool reachesCollapsed(uint32_t CanonElem, EffVar Target) const;

  //===--- Propagation -----------------------------------------------===//

  void insertElem(EffVar V, uint32_t ElemBits);
  void insertElemClass(EffVar C, uint32_t ElemBits);
  /// Replaces class \p C's pending list with its whole solution (the
  /// caller queues the class).
  void refillPending(EffVar C) const;
  /// Appends \p Classes to the worklist in ascending rank.
  void queueByRank(std::vector<EffVar> &Classes) const;
  void propagate();
  /// Probes class \p C's intersection feeds for a just-flushed \p Elem,
  /// through the holder index unless in baseline mode.
  void flushToIntersections(EffVar C, uint32_t Elem);
  /// Tests one intersection operand for \p Elem and, on a hit, puts
  /// \p Elem in the intersection's output.
  void probe(uint32_t Inter, const InterOperand &Other, uint32_t Elem);
  /// Sizes the holder index for every location and, if intersections
  /// were added since the last propagation, re-derives it from the
  /// current solutions.
  void syncHolders();
  /// Adds class \p C, with \p Feeds feeds on side \p Side, to the
  /// side's holders of \p Elem.
  void recordHolder(EffVar C, uint8_t Side, uint32_t Elem, uint32_t Feeds);
  void recanonicalize();
  bool evalPremise(const CondConstraint &C) const;
  void applyAction(const CondAction &A);
  /// Logs From <= To; false (and nothing logged) if From == To.
  bool recordEdge(EffVar From, EffVar To);
  /// From <= To added by a fired conditional: onto the source class's
  /// fired list, or, when it closes a cycle, through a new Tarjan pass.
  void addFiredEdge(EffVar From, EffVar To);
  void computeScope(const std::vector<EffVar> &QueryVars);

  LocTable &Locs;
  /// The authoritative graph: append-only logs, plus the origins
  /// parallel to the edge and seed logs when TrackOrigins.
  uint32_t NumVars = 0;
  std::vector<std::pair<EffVar, EffVar>> EdgeLog;   ///< (from, to)
  std::vector<std::pair<EffVar, uint32_t>> SeedLog; ///< (var, elem bits)
  std::vector<std::pair<EffVar, Feed>> FeedLog;     ///< (var, feed)
  std::vector<Origin> EdgeOrigins, SeedOrigins;
  mutable VarGroups<EffVar> OutEdgeView;
  mutable VarGroups<uint32_t> SeedView;
  mutable VarGroups<Feed> OutInterView;
  mutable VarGroups<uint32_t> ProbeView;
  std::vector<InterNode> Inters;
  std::vector<CondConstraint> Conds;
  std::vector<CondAction> ActionPool;
  std::vector<EffVar> AnyOfPool;

  /// Class state, indexed by variable and sized by condense(); only
  /// leaders' entries are used. Mutable: CHECK-SAT, a const query,
  /// builds the classes on first use.
  mutable bool ClassesValid = false;
  /// Leader and NextMember (the ascending member chain from a leader)
  /// stay empty while every class is one variable.
  mutable std::vector<EffVar> Leader, NextMember;
  /// Tarjan rank of each variable's class: the order a pass over the
  /// classes visits them in.
  mutable std::vector<uint32_t> Rank;
  /// True while every edge between classes, fired ones included, runs
  /// from a higher rank to a lower one.
  mutable bool TopoOrdered = true;
  mutable std::vector<SmallElemSet> Sol;
  /// Elements still to flush, per class; the pool resets whenever
  /// propagation drains. A class is on the Worklist iff its list is
  /// nonempty.
  mutable RingLists Pending;
  mutable std::vector<EffVar> Worklist;
  /// The location union-find's merge count when recanonicalize() last
  /// made every set canonical.
  uint32_t CanonMerges = ~0u;
  /// Fired edges (target variables) per source class since the edge
  /// view was last regrouped; Last stays empty until the first one.
  mutable RingLists Fired;
  /// Per variable: in the backwards scope (computeScope). A class is in
  /// scope iff its leader is: Tarjan's classes are mutually reachable,
  /// so the backwards closure marks all members or none.
  mutable std::vector<uint8_t> InScope;
  /// CHECK-SAT source indexes, keyed by canonical element bits;
  /// invalidated when the location union-find merges classes or seeds
  /// are added.
  mutable bool IndexValid = false;
  mutable uint32_t IndexMergeStamp = 0;
  mutable uint64_t IndexSeedStamp = 0;
  mutable std::unordered_map<uint32_t, std::vector<EffVar>> SeedClasses;
  mutable std::unordered_map<uint32_t, std::vector<Feed>> ElemFeeds;
  /// Epoch-stamped DFS scratch: no per-query allocation or clearing.
  mutable std::vector<uint32_t> VisitEpoch; ///< per class
  mutable std::vector<uint32_t> SideEpoch;  ///< per intersection
  mutable std::vector<uint8_t> SideMask;    ///< valid when SideEpoch == Epoch
  mutable std::vector<uint32_t> WorkScratch;
  mutable uint32_t Epoch = 0;

  mutable SolverStats Stats;
  HolderIndex Holders;
  /// The edge plus feed log length when solve() last returned.
  size_t SolvedLogs = 0;
  bool Baseline = false; ///< LNA_SOLVER_BASELINE=1: no collapse, no index
  bool TrackOrigins = false;
  Origin CurOrigin{};
};

} // namespace lna

#endif // LNA_EFFECTS_CONSTRAINTSYSTEM_H
