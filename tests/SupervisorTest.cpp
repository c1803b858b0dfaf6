//===- SupervisorTest.cpp - process isolation & supervision tests ---------===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Covers the process-isolation stack bottom-up: the Subprocess
// primitive (spawn/classify/reap), the module-outcome wire format, the
// hardened checkpoint journal (torn final rows), and the supervisor
// itself -- byte-identical reports vs. the in-process runner, worker
// crash recovery, and poison-module quarantine. The supervised tests
// spawn the real lna-corpus binary (LNA_CORPUS_BIN) in --worker mode.
//
//===----------------------------------------------------------------------===//

#include "corpus/Supervisor.h"
#include "obs/EventJournal.h"
#include "support/FileIO.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

using namespace lna;

namespace {

std::string readAllFrom(int Fd) {
  std::string Out;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
    Out.append(Buf, static_cast<size_t>(N));
  return Out;
}

/// A unique scratch path under the test binary's working directory.
std::string scratchPath(const std::string &Name) {
  return "supervisor_test_" + Name;
}

std::vector<ModuleSpec> corpusSlice(uint32_t N) {
  std::vector<ModuleSpec> Corpus = generateCorpus();
  if (N < Corpus.size())
    Corpus.resize(N);
  return Corpus;
}

/// Worker command line matching corpusSlice(N): the real corpus binary,
/// the same slice, worker mode.
std::vector<std::string> workerArgv(uint32_t N,
                                    const std::string &ExtraFlag = "") {
  std::vector<std::string> Argv{LNA_CORPUS_BIN,
                                "--limit=" + std::to_string(N)};
  if (!ExtraFlag.empty())
    Argv.push_back(ExtraFlag);
  Argv.push_back("--worker");
  return Argv;
}

//===----------------------------------------------------------------------===//
// Subprocess primitives
//===----------------------------------------------------------------------===//

TEST(SubprocessTest, PipesRoundTripAndCleanExit) {
  Subprocess P;
  std::string Err;
  ASSERT_TRUE(P.spawn({"/bin/cat"}, Err)) << Err;
  EXPECT_TRUE(P.started());
  EXPECT_GT(P.pid(), 0);
  ASSERT_TRUE(writeAll(P.stdinFd(), "through the pipes\n"));
  P.closeStdin();
  EXPECT_EQ(readAllFrom(P.stdoutFd()), "through the pipes\n");
  ExitStatus St = P.wait();
  EXPECT_EQ(St.K, ExitStatus::Kind::Exited);
  EXPECT_EQ(St.Code, 0);
  EXPECT_EQ(St.describe(), "exit status 0");
}

TEST(SubprocessTest, ExitCodeIsClassified) {
  Subprocess P;
  std::string Err;
  ASSERT_TRUE(P.spawn({"/bin/sh", "-c", "exit 7"}, Err)) << Err;
  ExitStatus St = P.wait();
  EXPECT_EQ(St.K, ExitStatus::Kind::Exited);
  EXPECT_EQ(St.Code, 7);
  // Repeated reaps keep returning the final status.
  EXPECT_EQ(P.poll().Code, 7);
}

TEST(SubprocessTest, SignalDeathIsClassified) {
  Subprocess P;
  std::string Err;
  ASSERT_TRUE(P.spawn({"/bin/sh", "-c", "kill -KILL $$"}, Err)) << Err;
  ExitStatus St = P.wait();
  EXPECT_EQ(St.K, ExitStatus::Kind::Signaled);
  EXPECT_EQ(St.Signal, SIGKILL);
  // SIGKILL forensics flag the OOM-killer possibility.
  EXPECT_NE(St.describe().find("signal 9"), std::string::npos);
  EXPECT_NE(St.describe().find("OOM"), std::string::npos);
}

TEST(SubprocessTest, ExecFailureSurfacesAs127) {
  Subprocess P;
  std::string Err;
  ASSERT_TRUE(P.spawn({"/nonexistent/definitely-not-a-binary"}, Err)) << Err;
  ExitStatus St = P.wait();
  EXPECT_EQ(St.K, ExitStatus::Kind::Exited);
  EXPECT_EQ(St.Code, 127);
}

TEST(SubprocessTest, KillReapsARunningChild) {
  Subprocess P;
  std::string Err;
  ASSERT_TRUE(P.spawn({"/bin/sh", "-c", "sleep 30"}, Err)) << Err;
  EXPECT_TRUE(P.poll().running());
  P.kill(SIGKILL);
  ExitStatus St = P.wait();
  EXPECT_EQ(St.K, ExitStatus::Kind::Signaled);
  EXPECT_EQ(St.Signal, SIGKILL);
}

//===----------------------------------------------------------------------===//
// Module-outcome wire format
//===----------------------------------------------------------------------===//

ModuleOutcome sampleOutcome() {
  ModuleOutcome O;
  O.R.Ok = false;
  O.R.Failure = FailureKind::InternalError;
  O.R.Error = "injected fault at inference";
  O.R.FailedPhase = "inference";
  O.R.Counts = {12, 3, 1};
  O.Retried = true;
  PhaseStats &PS = O.R.Stats.phase("parse");
  PS.Seconds = 0.001953125; // exactly representable
  PS.add("tokens", 421);
  return O;
}

TEST(OutcomeWireTest, RoundTripsEveryField) {
  ModuleOutcome O = sampleOutcome();
  std::string Bytes = serializeModuleOutcome(O, 17);
  size_t Consumed = 0;
  uint32_t Idx = 0;
  ModuleOutcome Back;
  ASSERT_EQ(parseModuleOutcome(Bytes, Consumed, Idx, Back), WireParse::Ok);
  EXPECT_EQ(Consumed, Bytes.size());
  EXPECT_EQ(Idx, 17u);
  EXPECT_EQ(Back.R.Ok, O.R.Ok);
  EXPECT_EQ(Back.R.Failure, O.R.Failure);
  EXPECT_EQ(Back.R.Error, O.R.Error);
  EXPECT_EQ(Back.R.FailedPhase, O.R.FailedPhase);
  EXPECT_EQ(Back.R.Counts.NoConfine, O.R.Counts.NoConfine);
  EXPECT_EQ(Back.R.Counts.ConfineInference, O.R.Counts.ConfineInference);
  EXPECT_EQ(Back.R.Counts.AllStrong, O.R.Counts.AllStrong);
  EXPECT_TRUE(Back.Retried);
  EXPECT_FALSE(Back.Resumed);
  EXPECT_DOUBLE_EQ(Back.R.Stats.phase("parse").Seconds, 0.001953125);
  EXPECT_EQ(Back.R.Stats.counter("parse", "tokens"), 421u);
}

TEST(OutcomeWireTest, IncompletePrefixNeedsMoreAtEveryCut) {
  std::string Bytes = serializeModuleOutcome(sampleOutcome(), 3);
  for (size_t Cut = 0; Cut < Bytes.size(); ++Cut) {
    size_t Consumed = 0;
    uint32_t Idx = 0;
    ModuleOutcome Back;
    EXPECT_EQ(parseModuleOutcome(std::string_view(Bytes).substr(0, Cut),
                                 Consumed, Idx, Back),
              WireParse::NeedMore)
        << "cut at " << Cut;
  }
}

TEST(OutcomeWireTest, GarbageIsCorruptNotACrash) {
  size_t Consumed = 0;
  uint32_t Idx = 0;
  ModuleOutcome Back;
  EXPECT_EQ(parseModuleOutcome("garbage 9 9 9\nmore", Consumed, Idx, Back),
            WireParse::Corrupt);
  // A valid header whose failure kind does not exist is corrupt too.
  EXPECT_EQ(parseModuleOutcome(
                "outcome 1 0 0 not-a-kind 0 0 0 1 1 1 0 0 0 0\n", Consumed,
                Idx, Back),
            WireParse::Corrupt);
}

TEST(OutcomeWireTest, StatsSerializationRoundTripsExactly) {
  SessionStats S;
  PhaseStats &P1 = S.phase("typing");
  P1.Seconds = 1.0 / 3.0; // not exactly printable in decimal
  P1.add("unifications", 123456789);
  S.phase("inference").Seconds = 4.25e-7;
  SessionStats Back;
  ASSERT_TRUE(Back.deserialize(S.serialize()));
  // Hex-float encoding makes the round trip exact, not just close.
  EXPECT_EQ(Back.renderText(), S.renderText());
  EXPECT_EQ(Back.phase("typing").Seconds, 1.0 / 3.0);
  ASSERT_FALSE(Back.deserialize("stats 1 1\ntruncated"));
  EXPECT_TRUE(Back.empty());
}

//===----------------------------------------------------------------------===//
// Checkpoint journal hardening
//===----------------------------------------------------------------------===//

namespace {

std::string readFile(const std::string &Path) {
  std::string Bytes;
  readWholeFile(Path, Bytes);
  return Bytes;
}

void writeFile(const std::string &Path, std::string_view Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

std::string digestOf(char C) { return std::string(32, C); }

/// A finished module as a worker reports it: stats, metrics and failure
/// detail included.
ModuleOutcome journaledOutcome(uint32_t Seed) {
  ModuleOutcome O = sampleOutcome();
  O.R.Counts = {Seed, Seed + 1, Seed + 2};
  O.R.HasMetrics = true;
  O.R.Metrics.addCounter("unifications", Seed);
  O.R.Metrics.recordValue("effect-set-size", 3);
  return O;
}

} // namespace

TEST(JournalTest, TornFinalRowIsSkippedOnResume) {
  std::string Path = scratchPath("torn.journal");
  std::remove(Path.c_str());
  ModuleOutcome Ok;
  Ok.R.Ok = true;
  Ok.R.Counts = {5, 1, 0};
  {
    CheckpointJournal J;
    ASSERT_TRUE(J.open(Path));
    J.append("mod_a", digestOf('a'), Ok);
    J.append("mod_b", digestOf('b'), Ok);
  }
  {
    CheckpointJournal Full;
    ASSERT_TRUE(Full.open(Path));
    EXPECT_FALSE(Full.find("mod_a", digestOf('a')).empty());
    EXPECT_FALSE(Full.find("mod_b", digestOf('b')).empty());
    // A row serves only the digest it was written under.
    EXPECT_TRUE(Full.find("mod_a", digestOf('b')).empty());
  }

  // Cut the final row one byte short. Its headers are whole, so only
  // the record's length framing can tell the row was torn.
  std::string Bytes = readFile(Path);
  writeFile(Path, std::string_view(Bytes).substr(0, Bytes.size() - 1));
  {
    CheckpointJournal Torn;
    ASSERT_TRUE(Torn.open(Path));
    EXPECT_FALSE(Torn.find("mod_a", digestOf('a')).empty());
    EXPECT_TRUE(Torn.find("mod_b", digestOf('b')).empty()); // re-analyzed
    Torn.append("mod_c", digestOf('c'), Ok);
  }
  // The row appended after the torn tail loads on the next resume.
  CheckpointJournal Next;
  ASSERT_TRUE(Next.open(Path));
  EXPECT_FALSE(Next.find("mod_a", digestOf('a')).empty());
  EXPECT_TRUE(Next.find("mod_b", digestOf('b')).empty());
  EXPECT_FALSE(Next.find("mod_c", digestOf('c')).empty());
  std::remove(Path.c_str());
}

TEST(JournalTest, TruncationAtEveryByteRestoresOnlyWholeRows) {
  // A journal cut at every byte restores exactly the rows wholly before
  // the cut, each intact, and open() trims the torn rest.
  std::string Path = scratchPath("cut.journal");
  std::remove(Path.c_str());
  const std::string Names[] = {"mod_a", "mod_b", "mod_c"};
  std::vector<ModuleOutcome> Written;
  std::vector<size_t> RowEnd;
  {
    CheckpointJournal J;
    ASSERT_TRUE(J.open(Path));
    for (uint32_t I = 0; I < 3; ++I) {
      Written.push_back(journaledOutcome(I));
      J.append(Names[I], digestOf(static_cast<char>('a' + I)), Written[I]);
      RowEnd.push_back(readFile(Path).size());
    }
  }
  std::string Bytes = readFile(Path);
  for (size_t Cut = 0; Cut <= Bytes.size(); ++Cut) {
    writeFile(Path, std::string_view(Bytes).substr(0, Cut));
    CheckpointJournal J;
    ASSERT_TRUE(J.open(Path));
    size_t Whole = 0;
    for (uint32_t I = 0; I < 3; ++I) {
      ModuleOutcome Back;
      bool Restored = restoreModuleRecord(
          J.find(Names[I], digestOf(static_cast<char>('a' + I))),
          RecordSource::Checkpoint, /*WantMetrics=*/true, Back);
      ASSERT_EQ(Restored, Cut >= RowEnd[I]) << "row " << I << ", cut " << Cut;
      if (!Restored)
        continue;
      Whole = RowEnd[I];
      EXPECT_TRUE(Back.Resumed);
      EXPECT_TRUE(Back.Retried);
      EXPECT_EQ(Back.R.Failure, Written[I].R.Failure);
      EXPECT_EQ(Back.R.Error, Written[I].R.Error);
      EXPECT_EQ(Back.R.FailedPhase, Written[I].R.FailedPhase);
      EXPECT_TRUE(Back.R.Counts == Written[I].R.Counts);
      EXPECT_EQ(Back.R.Metrics.renderJSON(), Written[I].R.Metrics.renderJSON());
      EXPECT_TRUE(Back.R.Stats.empty());
    }
    EXPECT_EQ(readFile(Path).size(), Whole) << "cut " << Cut;
  }
  std::remove(Path.c_str());
}

TEST(JournalTest, TruncatedResumeReanalyzesAndMatches) {
  // A full governed run's report must be byte-identical whether the
  // journal survived intact or lost its tail.
  std::vector<ModuleSpec> Corpus = corpusSlice(8);
  std::string Path = scratchPath("resume.journal");
  std::remove(Path.c_str());

  ExperimentOptions Opts;
  Opts.CheckpointFile = Path;
  std::string FirstReport =
      renderCorpusReport(runCorpusExperiment(Corpus, Opts));

  // Drop the last two rows (simulating a kill mid-write) and leave a
  // torn fragment of the first dropped one, then resume over the same
  // slice. Rows are journaled in module order at one job.
  std::string Bytes = readFile(Path);
  auto RowOf = [&](const ModuleSpec &M) {
    return Bytes.find("checkpoint " + moduleContentDigest(M, Opts));
  };
  size_t Dropped = RowOf(Corpus[6]);
  size_t Next = RowOf(Corpus[7]);
  ASSERT_NE(Dropped, std::string::npos);
  ASSERT_NE(Next, std::string::npos);
  writeFile(Path, std::string_view(Bytes).substr(0, (Dropped + Next) / 2));

  CorpusSummary Resumed = runCorpusExperiment(Corpus, Opts);
  EXPECT_EQ(renderCorpusReport(Resumed), FirstReport);
  EXPECT_EQ(Resumed.ResumedModules, 6u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Supervised execution
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, ReportMatchesInProcessRunner) {
  const uint32_t N = 12;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  ExperimentOptions Opts;
  std::string InProcess = renderCorpusReport(runCorpusExperiment(Corpus, Opts));

  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.WorkerArgv = workerArgv(N);
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(renderCorpusReport(Res.Summary), InProcess);
  EXPECT_EQ(corpusReportJSON(Res.Summary, /*IncludeTimings=*/false),
            corpusReportJSON(runCorpusExperiment(Corpus, Opts),
                             /*IncludeTimings=*/false));
  EXPECT_EQ(Res.Stats.WorkerCrashes, 0u);
  EXPECT_EQ(Res.Stats.QuarantinedModules, 0u);
}

TEST(SupervisorTest, WorkerKilledMidRunIsRestartedAndRecovers) {
  // Large enough that work remains after the ~10ms restart backoff, so
  // a replacement worker is actually spawned (a tiny slice can drain
  // through the surviving worker before the backoff elapses).
  const uint32_t N = 120;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  ExperimentOptions Opts;
  std::string InProcess = renderCorpusReport(runCorpusExperiment(Corpus, Opts));

  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.WorkerArgv = workerArgv(N);
  // Assassinate the first worker the moment it is born: its dispatched
  // module (if any) must be re-queued, a replacement spawned, and the
  // run must still produce the exact in-process report.
  bool Killed = false;
  Sup.OnWorkerSpawn = [&Killed](int Pid) {
    if (!Killed) {
      Killed = true;
      ::kill(Pid, SIGKILL);
    }
  };
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_GE(Res.Stats.WorkerCrashes, 1u);
  EXPECT_GE(Res.Stats.WorkerRestarts, 1u);
  EXPECT_EQ(Res.Stats.QuarantinedModules, 0u);
  EXPECT_EQ(renderCorpusReport(Res.Summary), InProcess);
}

TEST(SupervisorTest, PoisonModuleIsQuarantinedWithForensics) {
  // Every phase boundary kills the worker: every module is a poison
  // module. The run must still complete, with each module quarantined
  // as a Crashed row after exactly MaxModuleCrashes attempts.
  const uint32_t N = 3;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  ExperimentOptions Opts;
  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.MaxModuleCrashes = 2;
  Sup.WorkerArgv = workerArgv(N, "--inject-faults=seed=1,kill=1000000");
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.Stats.QuarantinedModules, N);
  EXPECT_EQ(Res.Stats.WorkerCrashes, N * Sup.MaxModuleCrashes);
  EXPECT_EQ(Res.Summary.FailedModules, N);
  EXPECT_EQ(Res.Summary.FailuresByKind[static_cast<size_t>(
                FailureKind::Crashed)],
            N);
  for (const ModuleResult &M : Res.Summary.Modules) {
    EXPECT_FALSE(M.Ok);
    EXPECT_EQ(M.Failure, FailureKind::Crashed);
    // Forensics: how the worker died and which crash sealed the verdict.
    EXPECT_NE(M.Error.find("signal 9"), std::string::npos) << M.Error;
    EXPECT_NE(M.Error.find("quarantined after 2/2"), std::string::npos)
        << M.Error;
  }
}

TEST(SupervisorTest, InjectedKillsRecoverToIdenticalReport) {
  // Moderate kill probability: some worker deaths, but the per-module
  // crash budget is never exhausted, so the report must be byte-equal
  // to the unfaulted in-process run (crash-retry determinism).
  const uint32_t N = 20;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  ExperimentOptions Opts;
  std::string InProcess = renderCorpusReport(runCorpusExperiment(Corpus, Opts));

  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.MaxModuleCrashes = 6;
  Sup.WorkerArgv = workerArgv(N, "--inject-faults=seed=7,kill=20000");
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.Stats.QuarantinedModules, 0u);
  EXPECT_EQ(renderCorpusReport(Res.Summary), InProcess);
}

TEST(SupervisorTest, CheckpointResumeSkipsFinishedModules) {
  const uint32_t N = 10;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  std::string Path = scratchPath("supervised.journal");
  std::remove(Path.c_str());

  ExperimentOptions Opts;
  Opts.CheckpointFile = Path;
  Opts.CollectMetrics = true;
  SupervisorOptions Sup;
  Sup.Workers = 2;
  // Some modules fail (injected internal errors), so the journal also
  // carries failure detail.
  Sup.WorkerArgv = workerArgv(N, "--inject-faults=seed=7,internal=50000");

  SupervisedResult First = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(First.Ok) << First.Error;
  EXPECT_EQ(First.Summary.ResumedModules, 0u);
  ASSERT_GT(First.Summary.FailedModules, 0u);
  ASSERT_LT(First.Summary.FailedModules, N);
  ASSERT_FALSE(First.Summary.Metrics.empty());

  // Second run resumes everything: no workers have any module to run,
  // and the rendered report is identical (resume is invisible). So are
  // the merged metrics and every module's failure detail.
  SupervisedResult Second = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_EQ(Second.Summary.ResumedModules, N);
  EXPECT_EQ(renderCorpusReport(Second.Summary),
            renderCorpusReport(First.Summary));
  EXPECT_EQ(Second.Summary.Metrics.renderJSON(),
            First.Summary.Metrics.renderJSON());
  for (uint32_t I = 0; I < N; ++I) {
    EXPECT_EQ(Second.Summary.Modules[I].Error, First.Summary.Modules[I].Error)
        << Corpus[I].Name;
  }
  std::remove(Path.c_str());
}

TEST(SupervisorTest, UnrunnableWorkerBinaryIsAFatalConfigError) {
  std::vector<ModuleSpec> Corpus = corpusSlice(2);
  ExperimentOptions Opts;
  SupervisorOptions Sup;
  Sup.Workers = 1;
  Sup.WorkerArgv = {"/nonexistent/lna-corpus", "--worker"};
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Error.find("failed to start"), std::string::npos)
      << Res.Error;
}

//===----------------------------------------------------------------------===//
// Fleet observability: event journal, flight recovery, fleet trace
//===----------------------------------------------------------------------===//

namespace {

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  return Lines;
}

size_t countEvents(const std::vector<std::string> &Lines,
                   const std::string &Type) {
  std::string Needle = "\"event\":\"" + Type + "\"";
  size_t N = 0;
  for (const std::string &L : Lines)
    if (L.find(Needle) != std::string::npos)
      ++N;
  return N;
}

} // namespace

TEST(SupervisorObs, ChaosJournalCoversEveryDeathRestartAndQuarantine) {
  // Seeded chaos: the journal must account for exactly the deaths,
  // restarts, and quarantines the supervisor itself counted -- and its
  // timestamps must be totally ordered.
  const uint32_t N = 12;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  std::string JournalPath = scratchPath("events.jsonl");

  EventJournal Events;
  ASSERT_TRUE(Events.open(JournalPath));
  ExperimentOptions Opts;
  Opts.Events = &Events;
  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.MaxModuleCrashes = 1;
  Sup.WorkerArgv = workerArgv(N, "--inject-faults=seed=7,kill=300000");
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  Events.close();
  ASSERT_TRUE(Res.Ok) << Res.Error;
  ASSERT_GE(Res.Stats.WorkerCrashes, 1u);

  std::vector<std::string> Lines = readLines(JournalPath);
  ASSERT_FALSE(Lines.empty());
  uint64_t PrevTs = 0;
  for (const std::string &L : Lines) {
    ASSERT_EQ(L.rfind("{\"ts_us\":", 0), 0u) << L;
    ASSERT_EQ(L.back(), '}') << L;
    uint64_t Ts = 0;
    ASSERT_EQ(std::sscanf(L.c_str(), "{\"ts_us\":%" SCNu64, &Ts), 1) << L;
    EXPECT_GE(Ts, PrevTs);
    PrevTs = Ts;
  }
  EXPECT_EQ(countEvents(Lines, "worker-death"), Res.Stats.WorkerCrashes);
  EXPECT_EQ(countEvents(Lines, "module-quarantine"),
            Res.Stats.QuarantinedModules);
  // Every spawn is either one of the initial workers or a counted
  // restart; a restart carries "restart":true.
  size_t Spawns = countEvents(Lines, "worker-spawn");
  EXPECT_LE(Spawns, Sup.Workers + Res.Stats.WorkerRestarts);
  // Every module is accounted for exactly once: completed or
  // quarantined.
  EXPECT_EQ(countEvents(Lines, "module-complete") +
                countEvents(Lines, "module-quarantine"),
            N);
  std::remove(JournalPath.c_str());
}

TEST(SupervisorObs, QuarantineForensicsContainRecoveredFlightSpans) {
  // A worker SIGKILLed mid-module leaves its black box behind; the
  // quarantine row must surface the recovered span tail. kill=300000
  // with this seed kills several modules *after* at least one phase
  // span closed (a kill at the very first fault site leaves an empty
  // recording, which is correctly omitted).
  const uint32_t N = 12;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  std::string FlightDir = scratchPath("flightdir");
  std::filesystem::create_directories(FlightDir);

  ExperimentOptions Opts;
  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.MaxModuleCrashes = 1;
  Sup.FlightDir = FlightDir;
  Sup.WorkerArgv = workerArgv(N, "--inject-faults=seed=7,kill=300000");
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  ASSERT_GE(Res.Stats.QuarantinedModules, 1u);

  size_t WithFlight = 0;
  for (const ModuleResult &M : Res.Summary.Modules) {
    if (M.Ok || M.Failure != FailureKind::Crashed)
      continue;
    // Forensics ordering: the recovered tail extends the quarantine
    // verdict, never replaces it.
    EXPECT_NE(M.Error.find("quarantined after"), std::string::npos)
        << M.Error;
    if (M.Error.find("flight recorder (") != std::string::npos) {
      ++WithFlight;
      EXPECT_NE(M.Error.find("recovered span"), std::string::npos) << M.Error;
      EXPECT_NE(M.Error.find("us/"), std::string::npos) << M.Error;
    }
  }
  EXPECT_GE(WithFlight, 1u);
  std::filesystem::remove_all(FlightDir);
}

TEST(SupervisorObs, FleetTraceMergesWorkerLanesAndReportIsUnchanged) {
  const uint32_t N = 8;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  ExperimentOptions Plain;
  std::string Baseline =
      renderCorpusReport(runCorpusExperiment(Corpus, Plain));

  std::string TraceDir = scratchPath("fleettrace");
  std::filesystem::create_directories(TraceDir);
  ExperimentOptions Opts;
  Opts.TraceDir = TraceDir;
  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.WorkerArgv = workerArgv(N, "--trace-dir=" + TraceDir);
  Sup.FleetTracePath = TraceDir + "/fleet.trace.json";
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_FALSE(Res.FleetTraceFailed);
  // Observability never perturbs the deterministic report surface.
  EXPECT_EQ(renderCorpusReport(Res.Summary), Baseline);

  std::ifstream In(Sup.FleetTracePath);
  ASSERT_TRUE(In.good());
  std::string Json((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(Json.rfind("{\"traceEvents\":[", 0), 0u);
  // Supervisor and both worker lanes are named...
  EXPECT_NE(Json.find("\"name\":\"supervisor\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"worker 0\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"worker 1\""), std::string::npos);
  // ...and per-module phase spans were merged out of the module traces
  // (pid >= 1 lanes carry cat "lna" spans).
  EXPECT_NE(Json.find("\"cat\":\"lna\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"aggregate\""), std::string::npos);
  std::filesystem::remove_all(TraceDir);
}

} // namespace
