//===- bench_solver.cpp - Solver hot-path before/after --------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Quantifies the solver speed pass (SCC pre-collapse, small-set effect
// sets, indexed CHECK-SAT) against the retained uncollapsed baseline
// (LNA_SOLVER_BASELINE=1, which the ConstraintSystem constructor reads):
//
//  * a synthetic cyclic constraint graph, sized like the corpus's worst
//    modules but denser, measuring least-solution propagation and a
//    CHECK-SAT query storm separately -- with the query answers and the
//    full least solution asserted identical between the two solvers;
//  * the full 589-module corpus, comparing the median over interleaved
//    passes of the summed wall time of the solver-dominated phases
//    (effect-constraints, check-sat, inference) and asserting the
//    rendered corpus report is byte-identical modulo the wall-clock line.
//
// The run fails (exit 1) if either solver disagrees with the other or
// the combined solver speedup falls below the 2x floor the speed pass
// claims. Results go to BENCH_solver.json in the working directory.
// Plain main() rather than google-benchmark: the interesting output is
// a before/after comparison, not an iteration-time distribution.
//
//===----------------------------------------------------------------------===//

#include "corpus/Experiment.h"
#include "effects/ConstraintSystem.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

using namespace lna;

namespace {

// Deterministic 64-bit LCG: the workload must be identical run to run
// and mode to mode.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 11;
  }
  uint32_t below(uint32_t N) { return static_cast<uint32_t>(next() % N); }
};

constexpr uint32_t NumVars = 3000;
constexpr uint32_t NumLocs = 600;
constexpr uint32_t NumQueries = 30000;
constexpr int Repetitions = 5;
constexpr int CorpusRepetitions = 9;

// A clustered graph with real cycles: vars are grouped into clusters of
// ~12; each cluster gets a spanning cycle plus random chords, and
// clusters are bridged forward so solutions flow far. Seeds follow the
// corpus shape (most sets start with 1..3 elements).
void buildWorkload(LocTable &Locs, ConstraintSystem &CS) {
  Lcg R(0x5EED5EED5EEDULL);
  std::vector<LocId> Ls;
  Ls.reserve(NumLocs);
  for (uint32_t I = 0; I < NumLocs; ++I)
    Ls.push_back(Locs.fresh());
  std::vector<EffVar> Vs;
  Vs.reserve(NumVars);
  for (uint32_t I = 0; I < NumVars; ++I)
    Vs.push_back(CS.makeVar());

  constexpr uint32_t Cluster = 12;
  for (uint32_t Base = 0; Base + Cluster <= NumVars; Base += Cluster) {
    // Spanning cycle.
    for (uint32_t I = 0; I < Cluster; ++I)
      CS.addEdge(Vs[Base + I], Vs[Base + (I + 1) % Cluster]);
    // Chords.
    for (uint32_t I = 0; I < 4; ++I)
      CS.addEdge(Vs[Base + R.below(Cluster)], Vs[Base + R.below(Cluster)]);
    // Forward bridges to later clusters.
    if (Base + 2 * Cluster <= NumVars)
      CS.addEdge(Vs[Base + R.below(Cluster)],
                 Vs[Base + Cluster + R.below(Cluster)]);
    if (Base + 5 * Cluster <= NumVars)
      CS.addEdge(Vs[Base + R.below(Cluster)],
                 Vs[Base + 4 * Cluster + R.below(Cluster)]);
  }
  // Seeds: 1..3 elements on about 60% of the vars.
  for (uint32_t I = 0; I < NumVars; ++I) {
    if (R.below(10) >= 6)
      continue;
    uint32_t N = 1 + R.below(3);
    for (uint32_t K = 0; K < N; ++K)
      CS.addElement(static_cast<EffectKind>(R.below(3)), Ls[R.below(NumLocs)],
                    Vs[I]);
  }
  // A few intersections fed by cycle members.
  for (uint32_t I = 0; I < 50; ++I)
    CS.addIntersection(
        InterOperand::var(Vs[R.below(NumVars)]),
        InterOperand::elem(EffectElem(static_cast<EffectKind>(R.below(3)),
                                      Ls[R.below(NumLocs)])),
        Vs[R.below(NumVars)]);
}

struct SyntheticRun {
  double SolveSeconds = 0.0;
  double QuerySeconds = 0.0;
  uint64_t SolutionFingerprint = 0;
  uint64_t QueryFingerprint = 0;
};

SyntheticRun runSynthetic(bool Baseline) {
  if (Baseline)
    setenv("LNA_SOLVER_BASELINE", "1", 1);
  else
    unsetenv("LNA_SOLVER_BASELINE");

  SyntheticRun Best;
  for (int Rep = 0; Rep < Repetitions; ++Rep) {
    LocTable Locs;
    ConstraintSystem CS(Locs);
    buildWorkload(Locs, CS);

    Timer Solve;
    CS.solve();
    double SolveSeconds = Solve.seconds();

    // The CHECK-SAT query storm. reaches() answers against the
    // unconditional constraints, so it is mode-comparable and its
    // answers must be identical.
    Lcg R(0xC0FFEEULL);
    uint64_t QueryFp = 0;
    Timer Query;
    for (uint32_t I = 0; I < NumQueries; ++I) {
      EffectKind K = static_cast<EffectKind>(R.below(3));
      LocId L = R.below(NumLocs);
      EffVar V = R.below(NumVars);
      QueryFp = QueryFp * 1315423911ULL + (CS.reaches(K, L, V) ? 2 : 1);
    }
    double QuerySeconds = Query.seconds();

    uint64_t SolFp = 0;
    for (uint32_t V = 0; V < NumVars; ++V) {
      uint64_t Sum = 0;
      for (uint32_t E : CS.solution(V))
        Sum += E;
      SolFp = SolFp * 1099511628211ULL + CS.solution(V).size();
      SolFp = SolFp * 1099511628211ULL + Sum;
    }

    if (Rep == 0 || SolveSeconds + QuerySeconds <
                        Best.SolveSeconds + Best.QuerySeconds) {
      Best.SolveSeconds = SolveSeconds;
      Best.QuerySeconds = QuerySeconds;
    }
    Best.SolutionFingerprint = SolFp;
    Best.QueryFingerprint = QueryFp;
  }
  return Best;
}

struct CorpusRun {
  double SolverPhaseSeconds = 0.0;
  std::string Report;
  uint32_t FailedModules = 0;
  uint32_t TotalModules = 0;
};

// The report minus its wall-clock line: everything else must be
// byte-identical between the two solvers.
std::string stripWallClock(const std::string &Report) {
  std::istringstream In(Report);
  std::string Out, Line;
  while (std::getline(In, Line))
    if (Line.find("wall-clock") == std::string::npos)
      Out += Line + "\n";
  return Out;
}

/// One serial pass over the corpus with the chosen solver.
CorpusRun runCorpus(const std::vector<ModuleSpec> &Corpus, bool Baseline) {
  if (Baseline)
    setenv("LNA_SOLVER_BASELINE", "1", 1);
  else
    unsetenv("LNA_SOLVER_BASELINE");

  ExperimentOptions Opts;
  Opts.Jobs = 1; // serial, so phase seconds are comparable wall time

  CorpusRun R;
  CorpusSummary S = runCorpusExperiment(Corpus, Opts);
  for (const auto &Phase : S.PhaseTimes) {
    if (Phase.first != "effect-constraints" && Phase.first != "check-sat" &&
        Phase.first != "inference")
      continue;
    for (double Sec : Phase.second)
      R.SolverPhaseSeconds += Sec;
  }
  R.Report = stripWallClock(renderCorpusReport(S));
  R.FailedModules = S.FailedModules;
  R.TotalModules = S.TotalModules;
  return R;
}

double median(std::vector<double> Xs) {
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : (Xs[N / 2 - 1] + Xs[N / 2]) / 2;
}

} // namespace

int main() {
  SyntheticRun Opt = runSynthetic(false);
  SyntheticRun Base = runSynthetic(true);

  if (Opt.SolutionFingerprint != Base.SolutionFingerprint ||
      Opt.QueryFingerprint != Base.QueryFingerprint) {
    std::fprintf(stderr, "bench_solver: collapsed and baseline solvers "
                         "disagree on the synthetic workload\n");
    return 1;
  }

  // The corpus passes take tens of milliseconds each, so machine noise
  // is as large as the difference: interleave them, alternating which
  // solver goes first, and compare medians.
  std::vector<ModuleSpec> Corpus = generateCorpus();
  CorpusRun COpt, CBase;
  std::vector<double> OptSeconds, BaseSeconds;
  for (int Rep = 0; Rep < CorpusRepetitions; ++Rep)
    for (int Leg = 0; Leg < 2; ++Leg) {
      const bool Baseline = (Rep + Leg) % 2 == 1;
      CorpusRun R = runCorpus(Corpus, Baseline);
      (Baseline ? BaseSeconds : OptSeconds).push_back(R.SolverPhaseSeconds);
      (Baseline ? CBase : COpt) = std::move(R);
    }
  unsetenv("LNA_SOLVER_BASELINE");
  COpt.SolverPhaseSeconds = median(OptSeconds);
  CBase.SolverPhaseSeconds = median(BaseSeconds);

  if (COpt.FailedModules != 0 || CBase.FailedModules != 0) {
    std::fprintf(stderr, "bench_solver: module failures (%u optimized, "
                         "%u baseline)\n",
                 COpt.FailedModules, CBase.FailedModules);
    return 1;
  }
  if (COpt.Report != CBase.Report) {
    std::fprintf(stderr, "bench_solver: corpus reports differ between "
                         "collapsed and baseline solvers\n");
    return 1;
  }

  double SolveSpeedup =
      Opt.SolveSeconds > 0.0 ? Base.SolveSeconds / Opt.SolveSeconds : 0.0;
  double QuerySpeedup =
      Opt.QuerySeconds > 0.0 ? Base.QuerySeconds / Opt.QuerySeconds : 0.0;
  double SynthTotalOpt = Opt.SolveSeconds + Opt.QuerySeconds;
  double SynthTotalBase = Base.SolveSeconds + Base.QuerySeconds;
  double SynthSpeedup = SynthTotalOpt > 0.0 ? SynthTotalBase / SynthTotalOpt
                                            : 0.0;
  double CorpusSpeedup = COpt.SolverPhaseSeconds > 0.0
                             ? CBase.SolverPhaseSeconds / COpt.SolverPhaseSeconds
                             : 0.0;

  std::printf("synthetic    solve %8.4f -> %8.4f s (%.1fx)   "
              "checksat %8.4f -> %8.4f s (%.1fx)\n",
              Base.SolveSeconds, Opt.SolveSeconds, SolveSpeedup,
              Base.QuerySeconds, Opt.QuerySeconds, QuerySpeedup);
  std::printf("corpus       solver phases %8.4f -> %8.4f s (%.2fx), "
              "reports identical\n",
              CBase.SolverPhaseSeconds, COpt.SolverPhaseSeconds,
              CorpusSpeedup);

  if (SynthSpeedup < 2.0) {
    std::fprintf(stderr, "bench_solver: synthetic solver speedup %.2fx is "
                         "below the 2x floor\n",
                 SynthSpeedup);
    return 1;
  }

  std::FILE *Out = std::fopen("BENCH_solver.json", "w");
  if (!Out) {
    std::fprintf(stderr, "bench_solver: cannot write output file\n");
    return 1;
  }
  std::fprintf(
      Out,
      "{\"synthetic\":{\"vars\":%u,\"locs\":%u,\"queries\":%u,"
      "\"baseline\":{\"solve_seconds\":%.6f,\"checksat_seconds\":%.6f},"
      "\"optimized\":{\"solve_seconds\":%.6f,\"checksat_seconds\":%.6f},"
      "\"solve_speedup\":%.2f,\"checksat_speedup\":%.2f,"
      "\"total_speedup\":%.2f},"
      "\"corpus\":{\"modules\":%u,\"reports_identical\":true,"
      "\"baseline_solver_phase_seconds\":%.6f,"
      "\"optimized_solver_phase_seconds\":%.6f,"
      "\"solver_phase_speedup\":%.2f},"
      "\"speedup\":%.2f}\n",
      NumVars, NumLocs, NumQueries, Base.SolveSeconds, Base.QuerySeconds,
      Opt.SolveSeconds, Opt.QuerySeconds, SolveSpeedup, QuerySpeedup,
      SynthSpeedup, COpt.TotalModules, CBase.SolverPhaseSeconds,
      COpt.SolverPhaseSeconds, CorpusSpeedup, SynthSpeedup);
  std::fclose(Out);
  std::printf("speedup %.2fx (floor 2x) -> BENCH_solver.json\n", SynthSpeedup);
  return 0;
}
