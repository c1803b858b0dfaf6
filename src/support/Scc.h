//===- Scc.h - CSR adjacency + iterative Tarjan SCC -----------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graph condensation machinery: a compact CSR adjacency built by
/// counting sort (the Andersen alias backend's), and an iterative Tarjan
/// strongly-connected-components pass, which the Andersen backend and
/// the effect constraint solver share. Both solvers collapse cycles --
/// every member of a plain-edge cycle provably has the same solution, so
/// propagating once per component does strictly less work for the same
/// answer.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_SUPPORT_SCC_H
#define LNA_SUPPORT_SCC_H

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace lna {

/// A compact forward adjacency built once per solve: edge targets grouped
/// by source via counting sort (edge lists can be long; per-node vectors
/// would churn).
struct Adjacency {
  std::vector<uint32_t> Start; ///< Start[n]..Start[n+1) indexes Targets
  std::vector<uint32_t> Targets;

  /// An empty adjacency for callers that fill Start/Targets directly
  /// (counting sort needs no intermediate edge-pair list when the caller
  /// can iterate its edges grouped or twice).
  Adjacency() = default;

  Adjacency(uint32_t NumNodes,
            const std::vector<std::pair<uint32_t, uint32_t>> &Edges) {
    Start.assign(NumNodes + 1, 0);
    for (const auto &E : Edges)
      ++Start[E.first + 1];
    for (uint32_t N = 0; N < NumNodes; ++N)
      Start[N + 1] += Start[N];
    Targets.resize(Edges.size());
    std::vector<uint32_t> Fill(Start.begin(), Start.end() - 1);
    for (const auto &E : Edges)
      Targets[Fill[E.first]++] = E.second;
  }

  const uint32_t *begin(uint32_t N) const { return Targets.data() + Start[N]; }
  const uint32_t *end(uint32_t N) const {
    return Targets.data() + Start[N + 1];
  }
};

/// Iterative Tarjan over the forward graph: any CSR-shaped \p Graph
/// whose begin(N)/end(N) bound node N's targets as `const uint32_t *`
/// (an Adjacency, or a caller's own grouped edge storage, read in
/// place). Components are numbered in pop order, so every condensation
/// edge goes from a higher-numbered component to a lower-numbered one:
/// descending component index is a topological order (sources first),
/// ascending is sinks-first.
template <typename Graph> struct TarjanSCC {
  const Graph &Adj;
  uint32_t NumNodes;
  /// A visited node is on the Tarjan stack until its component is
  /// assigned, so Comp doubles as the on-stack mark.
  std::vector<uint32_t> Comp, Index, Low;
  std::vector<uint32_t> Stack;
  uint32_t NextIndex = 0, NumComps = 0;
  static constexpr uint32_t Unvisited = ~0u;

  TarjanSCC(const Graph &Adj, uint32_t NumNodes)
      : Adj(Adj), NumNodes(NumNodes), Comp(NumNodes, Unvisited),
        Index(NumNodes, Unvisited), Low(NumNodes, 0) {
    for (uint32_t N = 0; N < NumNodes; ++N)
      if (Index[N] == Unvisited)
        run(N);
  }

  // Explicit DFS frames: node plus position in its adjacency list. One
  // buffer for the whole pass -- run() is called once per unvisited
  // root, and a mostly-acyclic graph has one root per node, so a
  // per-call vector would be a malloc per node.
  struct Frame {
    uint32_t Node;
    const uint32_t *Next;
  };
  std::vector<Frame> Frames;

  void run(uint32_t Root) {
    Frames.clear();
    Frames.push_back({Root, Adj.begin(Root)});
    Index[Root] = Low[Root] = NextIndex++;
    Stack.push_back(Root);
    while (!Frames.empty()) {
      Frame &F = Frames.back();
      if (F.Next != Adj.end(F.Node)) {
        uint32_t To = *F.Next++;
        if (Index[To] == Unvisited) {
          Index[To] = Low[To] = NextIndex++;
          Stack.push_back(To);
          Frames.push_back({To, Adj.begin(To)});
        } else if (Comp[To] == Unvisited) {
          Low[F.Node] = std::min(Low[F.Node], Index[To]);
        }
        continue;
      }
      uint32_t N = F.Node;
      Frames.pop_back();
      if (!Frames.empty())
        Low[Frames.back().Node] = std::min(Low[Frames.back().Node], Low[N]);
      if (Low[N] == Index[N]) {
        uint32_t C = NumComps++;
        uint32_t Member;
        do {
          Member = Stack.back();
          Stack.pop_back();
          Comp[Member] = C;
        } while (Member != N);
      }
    }
  }
};

} // namespace lna

#endif // LNA_SUPPORT_SCC_H
