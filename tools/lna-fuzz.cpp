//===- lna-fuzz.cpp - Differential fuzzing driver -------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Drives the differential fuzzing harness (src/fuzz): random well-typed-
// biased programs cross-checked by the six differential oracles
// (Oracles.h), with greedy reduction of failures into self-contained
// reproducer files.
//
//   lna-fuzz [options]
//
//   --runs=N           programs to generate (default 1000)
//   --seed=N           base seed; every program's own seed derives from
//                      it and is printed on failure (default 1)
//   --max-size=N       generator statement budget per program (default 48)
//   --oracle=NAME      run only this oracle (repeatable); NAME is one of
//                      soundness, solver-agreement, inference-maximality,
//                      round-trip, cache-identity, precision-differential
//   --alias=BACKEND    may-alias backend the oracles analyze under:
//                      'steensgaard' (default) or 'andersen' (the
//                      precision-differential oracle always runs both)
//   --regressions=DIR  write reduced reproducers into DIR
//   --max-seconds=S    stop after S seconds of wall clock (smoke runs)
//   --max-failures=N   stop after N distinct failures (default 10)
//   --no-reduce        report raw failing programs without shrinking
//   --replay=FILE      replay one reproducer file and exit
//   --stats            print the harness counter table
//   --inject-faults=S  fault-injection mode: analyze every generated
//                      program under the injected-fault spec
//                      seed=S,bad-alloc=P,internal=P,delay=P,delay-ms=N
//                      (probabilities in ppm) and fail only if a fault
//                      *escapes* containment
//
// Exit status: 0 when no oracle failed (or the replayed file is fixed);
// 1 on usage errors; 2 when a divergence was found (or still
// reproduces); 4 when a replay file cannot be read.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "support/FileIO.h"
#include "support/ParseArg.h"
#include "support/Subprocess.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace lna;

namespace {

struct CliOptions {
  FuzzOptions Fuzz;
  std::string ReplayFile;
  bool PrintStats = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: lna-fuzz [--runs=N] [--seed=N] [--max-size=N] [--oracle=NAME]\n"
      "                [--alias=steensgaard|andersen] [--regressions=DIR]\n"
      "                [--max-seconds=S] [--max-failures=N]\n"
      "                [--no-reduce] [--replay=FILE] [--stats]\n"
      "                [--inject-faults=SPEC]\n");
}

bool numberError(const std::string &Arg) {
  std::fprintf(stderr, "error: invalid value in '%s'\n", Arg.c_str());
  return false;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    uint64_t N = 0;
    if (Arg.rfind("--runs=", 0) == 0) {
      if (!parseUnsignedArg(Arg.substr(7), N, UINT32_MAX) || N == 0)
        return numberError(Arg);
      Opts.Fuzz.Runs = static_cast<uint32_t>(N);
    } else if (Arg.rfind("--seed=", 0) == 0) {
      if (!parseUnsignedArg(Arg.substr(7), N))
        return numberError(Arg);
      Opts.Fuzz.Seed = N;
    } else if (Arg.rfind("--max-size=", 0) == 0) {
      if (!parseUnsignedArg(Arg.substr(11), N, 100000) || N == 0)
        return numberError(Arg);
      Opts.Fuzz.Gen.MaxSize = static_cast<uint32_t>(N);
    } else if (Arg.rfind("--max-failures=", 0) == 0) {
      if (!parseUnsignedArg(Arg.substr(15), N, UINT32_MAX) || N == 0)
        return numberError(Arg);
      Opts.Fuzz.MaxFailures = static_cast<uint32_t>(N);
    } else if (Arg.rfind("--max-seconds=", 0) == 0) {
      double S = 0;
      if (!parseSecondsArg(Arg.substr(14), S))
        return numberError(Arg);
      Opts.Fuzz.MaxSeconds = S;
    } else if (Arg.rfind("--oracle=", 0) == 0) {
      std::optional<OracleKind> K = oracleFromName(Arg.substr(9));
      if (!K) {
        std::fprintf(stderr, "error: unknown oracle in '%s'\n", Arg.c_str());
        return false;
      }
      Opts.Fuzz.Oracles.push_back(*K);
    } else if (Arg.rfind("--alias=", 0) == 0) {
      std::optional<AliasBackendKind> B = aliasBackendFromName(Arg.substr(8));
      if (!B) {
        std::fprintf(stderr,
                     "error: invalid value in '%s' (expected "
                     "'steensgaard' or 'andersen')\n",
                     Arg.c_str());
        return false;
      }
      Opts.Fuzz.Backend = *B;
    } else if (Arg.rfind("--regressions=", 0) == 0) {
      Opts.Fuzz.RegressionDir = Arg.substr(14);
      if (Opts.Fuzz.RegressionDir.empty())
        return numberError(Arg);
    } else if (Arg.rfind("--replay=", 0) == 0) {
      Opts.ReplayFile = Arg.substr(9);
    } else if (Arg.rfind("--inject-faults=", 0) == 0) {
      FaultSpec Spec;
      std::string Error;
      if (!parseFaultSpec(Arg.substr(16), Spec, Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return false;
      }
      Opts.Fuzz.Faults = Spec;
    } else if (Arg == "--no-reduce") {
      Opts.Fuzz.ReduceFailures = false;
    } else if (Arg == "--stats") {
      Opts.PrintStats = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return false;
    }
  }
  return true;
}

int replay(const std::string &File) {
  std::string Source;
  if (int Err = readWholeFile(File, Source)) {
    std::fprintf(stderr, "error: cannot open '%s': %s\n", File.c_str(),
                 std::strerror(Err));
    return 4;
  }
  std::string Name;
  OracleOutcome O = replayRegressionSource(Source, &Name);
  if (!O.Applicable && !O.Message.empty() && Name.empty()) {
    std::fprintf(stderr, "error: %s\n", O.Message.c_str());
    return 1;
  }
  if (O.Applicable && O.Failed) {
    std::printf("%s: %s oracle still fails: %s\n", File.c_str(), Name.c_str(),
                O.Message.c_str());
    return 2;
  }
  std::printf("%s: %s oracle %s\n", File.c_str(), Name.c_str(),
              O.Applicable ? "passes" : "is vacuous (divergence fixed)");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // A closed pipe (`lna-fuzz ... | head`) must surface as a write
  // error, never kill the tool.
  ignoreSigPipe();
  CliOptions Cli;
  if (!parseArgs(Argc, Argv, Cli)) {
    usage();
    return 1;
  }
  if (!Cli.ReplayFile.empty())
    return replay(Cli.ReplayFile);

  FuzzReport R = runFuzz(Cli.Fuzz);

  for (const FuzzFailure &F : R.Failures) {
    std::printf("FAIL %s seed=%llu: %s\n", oracleName(F.Oracle),
                static_cast<unsigned long long>(F.Seed), F.Message.c_str());
    if (!F.File.empty())
      std::printf("  reproducer: %s\n", F.File.c_str());
    else
      std::printf("  reduced:\n%s\n", F.Reduced.c_str());
  }
  std::printf("%u program%s, %zu distinct failure%s\n", R.RunsCompleted,
              R.RunsCompleted == 1 ? "" : "s", R.Failures.size(),
              R.Failures.size() == 1 ? "" : "s");
  if (Cli.PrintStats)
    std::printf("%s", R.Stats.renderText().c_str());

  return R.ok() ? 0 : 2;
}
