//===- lnabench.cpp - Benchmark helper: inputs and the traced run ---------===//
//
// The benchmark's own program (perfbench/run.py drives it). It links the
// lna libraries but is not part of lna:
//
//   lnabench gen-corpus SEED DIR
//       Writes the 589-module Section 7 corpus generated under SEED into
//       DIR/<name>.lna plus DIR/expected.tsv ("file nc ci as" rows: the
//       generator's expected no-confine / confine / all-strong triple).
//       With DIR '-', prints one JSON object per module instead
//       ({"name":..., "expected":[nc,ci,as], "source":...}) and writes
//       no files.
//   lnabench gen-module CATEGORY SEED SIZE FILE [CATEGORY SEED SIZE FILE...]
//       Writes generated modules and prints each one's expected triple.
//   lnabench trace MANIFEST REQUESTS CACHE-DIR OUT-JSON TRACE-JSON SECONDS HOT
//       The traced run. MANIFEST lists modules ("file nc ci as"),
//       REQUESTS lists serve requests ("module-index flag-set"). Each pass
//       replicates the analysis layers from outside by calling their
//       public functions (parse, placeConfines, TypeChecker::check,
//       EffectInference::run, checkRestricts, runInference, analyzeLocks),
//       runs analyzeModuleAllModes on the same module, stores and loads
//       the outcome through CacheStore, aggregates with
//       aggregateModuleOutcomes, and replays the daemon's request path
//       (JsonValue::parse, invocationKey, HotStore::get, runInvocation,
//       jsonEscape) over REQUESTS. After an untimed pass that runs the
//       checks, pairs of passes with spans off and on follow for SECONDS
//       (at least one pair). Spans of the last traced pass go to TRACE-JSON as Chrome
//       trace events; per-layer self times, counters and the correctness
//       checks go to OUT-JSON.
//
// Every counter the replication computes is compared with the
// SessionStats analyzeModuleAllModes reports for the same module; a
// mismatch, or a lock-error count other than the generator's expected
// one, is counted as a failed operation.
//
//===----------------------------------------------------------------------===//

#include "cache/CacheStore.h"
#include "corpus/Corpus.h"
#include "corpus/Experiment.h"
#include "lang/Parser.h"
#include "qual/LockAnalysis.h"
#include "serve/HotStore.h"
#include "serve/Invocation.h"
#include "serve/Json.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace lna;

namespace {

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

struct SpanRec {
  const char *Name;
  int64_t StartNs;
  int64_t EndNs;
  int32_t Parent; ///< index into Tracer::Spans, -1 for a root
};

/// In-memory span recorder. Disabled, it records nothing and costs one
/// branch per span, which is what the untraced passes measure.
class Tracer {
public:
  bool Enabled = false;
  std::vector<SpanRec> Spans;
  std::vector<int32_t> Stack;
  Clock::time_point Epoch = Clock::now();

  int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                Epoch)
        .count();
  }
};

Tracer TheTracer;

class Scope {
public:
  explicit Scope(const char *Name) {
    if (!TheTracer.Enabled)
      return;
    Index = static_cast<int32_t>(TheTracer.Spans.size());
    int32_t Parent = TheTracer.Stack.empty() ? -1 : TheTracer.Stack.back();
    TheTracer.Spans.push_back({Name, TheTracer.now(), 0, Parent});
    TheTracer.Stack.push_back(Index);
  }
  ~Scope() {
    if (Index < 0)
      return;
    TheTracer.Spans[static_cast<size_t>(Index)].EndNs = TheTracer.now();
    TheTracer.Stack.pop_back();
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  int32_t Index = -1;
};

/// Times calls into the on-disk store from outside, so every load/store
/// -- the benchmark's own and those the program makes through the
/// ResultCache interface (runInvocation's session cache) -- gets a span.
class TimedCache final : public ResultCache {
public:
  explicit TimedCache(const std::string &Dir) : Store(Dir, 0) {}
  std::optional<std::string> load(std::string_view Key) override {
    Scope S("cache.load");
    ++Lookups[std::string(Key.substr(0, 1))];
    return Store.load(Key);
  }
  bool store(std::string_view Key, std::string_view Value) override {
    Scope S("cache.store");
    return Store.store(Key, Value);
  }
  void noteSemanticStale() override { Store.noteSemanticStale(); }
  CacheStore Store;
  /// Loads per key namespace ("m", "a", "s").
  std::map<std::string, uint64_t> Lookups;
};

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

struct Module {
  std::string File;
  ModuleSpec Spec;
};

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Bytes;
  return static_cast<bool>(Out);
}

std::string tripleText(const ModeCounts &C) {
  return std::to_string(C.NoConfine) + " " +
         std::to_string(C.ConfineInference) + " " +
         std::to_string(C.AllStrong);
}

/// The three flag sets of the serve workload and the expected lock-error
/// count each one reports.
const std::vector<std::vector<std::string>> FlagSets = {
    {}, {"--check"}, {"--check", "--all-strong"}};

uint32_t expectedForFlagSet(const ModeCounts &C, size_t Set) {
  return Set == 0 ? C.ConfineInference : Set == 1 ? C.NoConfine : C.AllStrong;
}

/// The count in a report's "lock analysis...: N unverifiable site(s)"
/// line, or -1 when there is none.
long lockErrorsInReport(const std::string &Out) {
  size_t Pos = Out.find("lock analysis");
  if (Pos == std::string::npos)
    return -1;
  size_t Colon = Out.find(": ", Pos);
  if (Colon == std::string::npos)
    return -1;
  return std::strtol(Out.c_str() + Colon + 2, nullptr, 10);
}

//===----------------------------------------------------------------------===//
// Replicated analysis layers
//===----------------------------------------------------------------------===//

/// One mode pipeline of analyzeModuleAllModes, called layer by layer.
/// Counters land in \p Rep under the program's own phase/counter names.
/// Returns false when a layer rejects the module.
bool replicateMode(const std::string &Source, bool Infer, SessionStats &Rep,
                   ModeCounts &Locks) {
  ASTContext Ctx;
  Diagnostics Diags;
  PipelineResult R;
  R.State = std::make_unique<AnalysisState>();
  R.State->selectAliasBackend(AliasBackendKind::Steensgaard);

  std::optional<Program> Parsed;
  {
    Scope S("lang.parse");
    Parsed = parse(Source, Ctx, Diags);
  }
  Rep.phase("parse").add("ast-nodes", Ctx.numExprs());
  if (!Parsed)
    return false;

  if (Infer) {
    PlacementResult Placed;
    {
      Scope S("core.confine_placement");
      Placed = placeConfines(Ctx, *Parsed);
    }
    R.Analyzed = std::move(Placed.Rewritten);
    R.OptionalConfines = std::move(Placed.OptionalConfines);
    Rep.phase("confine-placement")
        .add("confines-placed", R.OptionalConfines.size());
  } else {
    R.Analyzed = *Parsed;
  }

  TypeCheckOptions TCO;
  TCO.SplitLetLocations = Infer;
  TCO.OptionalConfines = &R.OptionalConfines;
  std::optional<AliasResult> Alias;
  {
    Scope S("alias.typing");
    TypeChecker TC(Ctx, R.State->Types, Diags);
    Alias = TC.check(R.Analyzed, TCO);
  }
  PhaseStats &Typing = Rep.phase("typing");
  Typing.add("unifications", R.State->Locs.numClassesMerged());
  Typing.add("locations", R.State->Locs.size());
  Typing.add("type-nodes", R.State->Types.size());
  if (!Alias)
    return false;
  R.Alias = std::move(*Alias);
  Typing.add("lock-sites", R.Alias.LockSites.size());

  EffectInferenceOptions EffOpts;
  EffOpts.LiberalRestrictEffect = Infer;
  {
    Scope S("core.effect_gen");
    EffectInference EI(Ctx, R.Analyzed, R.Alias, R.State->Types, R.State->CS,
                       EffOpts);
    R.Eff = EI.run();
  }
  const ConstraintSystem &CS = R.State->CS;
  PhaseStats &Gen = Rep.phase("effect-constraints");
  Gen.add("effect-vars", CS.numVars());
  Gen.add("constraints-generated", uint64_t(CS.numEdges()) +
                                       CS.numIntersections() +
                                       CS.conditionals().size());
  Gen.add("intersections", CS.numIntersections());
  Gen.add("conditionals", CS.conditionals().size());

  if (!Infer) {
    {
      Scope S("core.checksat");
      R.Checks = checkRestricts(Ctx, R.Alias, R.Eff, R.State->CS,
                                R.State->Types, *R.State->AA);
    }
    PhaseStats &PS = Rep.phase("check-sat");
    PS.add("checksat-queries", CS.stats().CheckSatQueries);
    PS.add("checksat-visits", CS.stats().CheckSatVisited);
    PS.add("violations", R.Checks.Violations.size());
  } else {
    {
      Scope S("core.inference");
      R.Inference =
          runInference(Ctx, R.Alias, R.Eff, R.State->CS, *R.State->AA, {});
    }
    uint64_t Candidates = 0;
    for (const BindInfo &B : R.Alias.Binds)
      if (B.IsPointer && !B.ExplicitRestrict)
        ++Candidates;
    PhaseStats &PS = Rep.phase("inference");
    PS.add("restricts-attempted", Candidates);
    PS.add("restricts-kept", R.Inference.RestrictableBinds.size());
    PS.add("confines-attempted", R.Alias.Confines.size());
    PS.add("confines-kept", R.Inference.SucceededConfines.size());
    PS.add("cond-firings", CS.stats().CondFirings);
    PS.add("propagated-elems", CS.stats().PropagatedElems);
    PS.add("solver-rounds", CS.stats().Rounds);
    PS.add("violations", R.Inference.Violations.size());
  }

  // The lock phase runs once per lock mode of the pipeline.
  std::vector<bool> Modes = Infer ? std::vector<bool>{false}
                                  : std::vector<bool>{false, true};
  for (bool AllStrong : Modes) {
    LockAnalysisOptions LO;
    LO.AllStrong = AllStrong;
    LockAnalysisResult LR;
    {
      Scope S("qual.lock_analysis");
      LR = analyzeLocks(Ctx, R, LO);
    }
    PhaseStats &PS = Rep.phase("lock-analysis");
    PS.add("lock-sites", R.Alias.LockSites.size());
    PS.add("lock-errors", LR.numErrors());
    (Infer ? Locks.ConfineInference
           : AllStrong ? Locks.AllStrong : Locks.NoConfine) = LR.numErrors();
  }
  return true;
}

/// Every counter the program reported equals the replicated one, and
/// the replication reports nothing the program does not.
bool sameCounters(const SessionStats &Program, const SessionStats &Rep,
                  std::string &Why) {
  size_t ProgramCounters = 0, RepCounters = 0;
  for (const PhaseStats &P : Program.phases())
    for (const auto &[Name, Value] : P.Counters) {
      ++ProgramCounters;
      uint64_t Mine = Rep.counter(P.Name, Name);
      if (Mine != Value) {
        Why = P.Name + "/" + Name + ": program " + std::to_string(Value) +
              ", replication " + std::to_string(Mine);
        return false;
      }
    }
  for (const PhaseStats &P : Rep.phases())
    RepCounters += P.Counters.size();
  if (ProgramCounters != RepCounters) {
    Why = "counter sets differ";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The traced run
//===----------------------------------------------------------------------===//

struct Totals {
  std::map<std::string, uint64_t> Counts;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> FailureNotes;
  void fail(std::string Note) {
    ++Failed;
    if (FailureNotes.size() < 20)
      FailureNotes.push_back(std::move(Note));
  }
};

struct Request {
  size_t Module;
  size_t FlagSet;
};

std::string requestLine(size_t Id, const std::string &Source, size_t Set) {
  std::string Line = "{\"id\":" + std::to_string(Id) +
                     ",\"cmd\":\"analyze\",\"source\":\"" +
                     jsonEscape(Source) + "\",\"flags\":[";
  for (size_t I = 0; I < FlagSets[Set].size(); ++I)
    Line += (I ? ",\"" : "\"") + FlagSets[Set][I] + "\"";
  return Line + "]}";
}

/// One pass over the modules and the requests. Counters and failures are
/// kept only when \p Record is set (every pass does identical work).
void runPass(const std::vector<Module> &Mods, const std::vector<Request> &Reqs,
             const std::vector<std::string> &Lines, const std::string &CacheDir,
             size_t HotCapacity, Totals &T, bool Record) {
  TimedCache Cache(CacheDir);
  std::vector<ModuleSpec> Specs;
  std::vector<ModuleOutcome> Outcomes;
  auto Count = [&](const std::string &Name, uint64_t V) {
    if (Record)
      T.Counts[Name] += V;
  };

  for (size_t I = 0; I < Mods.size(); ++I) {
    const Module &M = Mods[I];
    SessionStats Rep;
    ModeCounts Locks;
    bool RepOk;
    {
      Scope S("bench.replicate");
      RepOk = replicateMode(M.Spec.Source, false, Rep, Locks) &&
              replicateMode(M.Spec.Source, true, Rep, Locks);
    }
    ModuleOutcome O;
    {
      Scope S("corpus.module");
      O.R = analyzeModuleAllModes(M.Spec.Source);
    }
    std::string Key = "m-" + moduleContentDigest(M.Spec, ExperimentOptions{});
    std::string Entry = serializeModuleOutcome(O, static_cast<uint32_t>(I));
    bool Stored = Cache.store(Key, Entry);
    std::optional<std::string> Loaded = Cache.load(Key);
    if (Record) {
      ++T.Attempted;
      std::string Why;
      if (!RepOk || !O.R.Ok)
        T.fail(M.File + ": analysis rejected the module");
      else if (!(Locks == M.Spec.Expected) || !(O.R.Counts == M.Spec.Expected))
        T.fail(M.File + ": expected " + tripleText(M.Spec.Expected) +
               ", replication " + tripleText(Locks) + ", program " +
               tripleText(O.R.Counts));
      else if (!sameCounters(O.R.Stats, Rep, Why))
        T.fail(M.File + ": " + Why);
      else if (!Stored || !Loaded || *Loaded != Entry)
        T.fail(M.File + ": cache round trip failed");
      for (const PhaseStats &P : Rep.phases())
        for (const auto &[Name, Value] : P.Counters)
          Count(P.Name + "/" + Name, Value);
      Count("source-bytes", M.Spec.Source.size());
    }
    // How many parses and sessions the program runs per module, read
    // from its own phase spans on a few modules outside any timed span.
    if (Record && I < 16) {
      TraceSink Sink;
      ModuleAnalysisOptions MO;
      MO.Trace = &Sink;
      analyzeModuleAllModes(M.Spec.Source, MO);
      for (uint64_t J = Sink.oldestIndex(); J < Sink.numTotal(); ++J) {
        std::string_view Name = Sink.spanAt(J).Name;
        Count("program-parse-spans", Name == "parse");
        Count("program-typing-spans", Name == "typing");
      }
      Count("program-traced-modules", 1);
    }
    Specs.push_back(M.Spec);
    Outcomes.push_back(std::move(O));
  }
  if (!Mods.empty()) {
    Scope S("corpus.aggregate");
    CorpusSummary Sum = aggregateModuleOutcomes(Specs, Outcomes,
                                                AliasBackendKind::Steensgaard);
    if (Record && Sum.TotalModules - Sum.FailedModules != Mods.size())
      T.fail("aggregation lost modules");
  }

  // The daemon's request path (Server::runAnalyzeCmd), from outside.
  HotStore Hot(HotCapacity);
  for (size_t I = 0; I < Reqs.size(); ++I) {
    const Request &Q = Reqs[I];
    const Module &M = Mods[Q.Module];
    Scope Req("serve.request");
    std::optional<JsonValue> V;
    {
      Scope S("serve.json_parse");
      V = JsonValue::parse(Lines[I]);
    }
    const JsonValue *Src = V ? V->field("source") : nullptr;
    const std::string *Source = Src ? Src->asString() : nullptr;
    InvocationArgParser Parser;
    Parser.AllowPositional = false;
    Parser.AllowFileOutputs = false;
    std::string Err;
    for (const std::string &F : FlagSets[Q.FlagSet])
      Parser.parse(F, Err);
    std::string Key;
    if (Source) {
      Scope S("serve.key");
      Key = invocationKey(Parser.Opts, *Source);
    }
    std::optional<InvocationResult> R;
    if (Source) {
      {
        Scope S("serve.hot_get");
        R = Hot.get(Key);
      }
      if (!R)
        if (std::optional<std::string> Entry = Cache.load(Key)) {
          InvocationResult Decoded;
          if (decodeInvocation(*Entry, Decoded)) {
            Hot.put(Key, Decoded, nullptr);
            R = std::move(Decoded);
          }
        }
      if (!R) {
        std::unique_ptr<AnalysisSession> Session;
        {
          Scope S("serve.run_invocation");
          R = runInvocation(Parser.Opts, *Source, &Cache, &Session);
        }
        if (invocationCacheable(R->Exit)) {
          Cache.store(Key, encodeInvocation(*R));
          Hot.put(Key, *R, std::move(Session));
        }
      }
    }
    std::string Reply;
    if (R) {
      Scope S("serve.reply_escape");
      Reply = jsonEscape(R->Out);
      Reply += jsonEscape(R->Err);
    }
    if (Record) {
      ++T.Attempted;
      long Got = R ? lockErrorsInReport(R->Out) : -1;
      uint32_t Want = expectedForFlagSet(M.Spec.Expected, Q.FlagSet);
      if (Got != static_cast<long>(Want))
        T.fail(M.File + ": request " + std::to_string(I) + " reported " +
               std::to_string(Got) + " lock errors, expected " +
               std::to_string(Want));
    }
  }
  for (const auto &[Prefix, N] : Cache.Lookups)
    Count("cache-lookups-" + Prefix, N);
}

std::string jsonNum(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

/// Chrome trace-event JSON ("X" complete events, microseconds).
std::string chromeTrace(const std::vector<SpanRec> &Spans) {
  std::string Out = "{\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    Out += I ? ",\n" : "\n";
    Out += "{\"name\":\"";
    Out += S.Name;
    Out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
           jsonNum(S.StartNs / 1e3) + ",\"dur\":" +
           jsonNum((S.EndNs - S.StartNs) / 1e3) +
           ",\"args\":{\"id\":" + std::to_string(I) +
           ",\"parent\":" + std::to_string(S.Parent) + "}}";
  }
  return Out + "\n]}\n";
}

int cmdTrace(int Argc, char **Argv) {
  if (Argc != 9) {
    std::fprintf(stderr, "usage: lnabench trace MANIFEST REQUESTS CACHE-DIR "
                         "OUT-JSON TRACE-JSON SECONDS HOT\n");
    return 1;
  }
  std::vector<Module> Mods;
  {
    std::ifstream In(Argv[2]);
    std::string File;
    ModeCounts C;
    while (In >> File >> C.NoConfine >> C.ConfineInference >> C.AllStrong) {
      Module M;
      M.File = File;
      M.Spec.Name = File;
      M.Spec.Category = ModuleCategory::External;
      M.Spec.Expected = C;
      if (!readFile(File, M.Spec.Source)) {
        std::fprintf(stderr, "lnabench: cannot read %s\n", File.c_str());
        return 1;
      }
      Mods.push_back(std::move(M));
    }
  }
  std::vector<Request> Reqs;
  {
    std::ifstream In(Argv[3]);
    Request Q;
    while (In >> Q.Module >> Q.FlagSet)
      if (Q.Module < Mods.size() && Q.FlagSet < FlagSets.size())
        Reqs.push_back(Q);
  }
  std::vector<std::string> Lines;
  for (size_t I = 0; I < Reqs.size(); ++I)
    Lines.push_back(
        requestLine(I, Mods[Reqs[I].Module].Spec.Source, Reqs[I].FlagSet));
  std::string CacheDir = Argv[4];
  double Seconds = std::atof(Argv[7]);
  size_t Hot = static_cast<size_t>(std::max(1, std::atoi(Argv[8])));

  // An untimed first pass records counters and runs the checks; then
  // untraced and traced passes alternate (ABBA) so drift cancels.
  // Every pass starts from an empty cache in a directory of its own.
  unsigned Pass = 0;
  auto PassDir = [&] { return CacheDir + "/pass-" + std::to_string(Pass++); };
  Totals T;
  runPass(Mods, Reqs, Lines, PassDir(), Hot, T, /*Record=*/true);
  std::vector<double> OffSeconds, OnSeconds;
  std::vector<SpanRec> LastSpans;
  auto Start = Clock::now();
  for (unsigned Rep = 0;
       Rep == 0 ||
       std::chrono::duration<double>(Clock::now() - Start).count() < Seconds;
       ++Rep)
    for (bool On : {Rep % 2 == 1, Rep % 2 == 0}) {
      TheTracer.Enabled = On;
      TheTracer.Spans.clear();
      TheTracer.Spans.reserve(1u << 16);
      auto T0 = Clock::now();
      runPass(Mods, Reqs, Lines, PassDir(), Hot, T, /*Record=*/false);
      double Sec = std::chrono::duration<double>(Clock::now() - T0).count();
      (On ? OnSeconds : OffSeconds).push_back(Sec);
      if (On)
        LastSpans.swap(TheTracer.Spans);
    }
  TheTracer.Enabled = false;

  // Self time per span name: duration minus the direct children's.
  std::vector<int64_t> ChildNs(LastSpans.size(), 0);
  for (const SpanRec &S : LastSpans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, std::vector<double>> SelfMs, TotalMs;
  for (size_t I = 0; I < LastSpans.size(); ++I) {
    const SpanRec &S = LastSpans[I];
    SelfMs[S.Name].push_back((S.EndNs - S.StartNs - ChildNs[I]) / 1e6);
    TotalMs[S.Name].push_back((S.EndNs - S.StartNs) / 1e6);
  }

  std::string Out = "{\"attempted\":" + std::to_string(T.Attempted) +
                    ",\"failed\":" + std::to_string(T.Failed) +
                    ",\"failure_notes\":[";
  for (size_t I = 0; I < T.FailureNotes.size(); ++I)
    Out += (I ? ",\"" : "\"") + jsonEscape(T.FailureNotes[I]) + "\"";
  Out += "],\"seconds_untraced\":[";
  for (size_t I = 0; I < OffSeconds.size(); ++I)
    Out += (I ? "," : "") + jsonNum(OffSeconds[I]);
  Out += "],\"seconds_traced\":[";
  for (size_t I = 0; I < OnSeconds.size(); ++I)
    Out += (I ? "," : "") + jsonNum(OnSeconds[I]);
  Out += "],\"counts\":{";
  bool First = true;
  for (const auto &[Name, V] : T.Counts) {
    Out += (First ? "\"" : ",\"") + Name + "\":" + std::to_string(V);
    First = false;
  }
  // Per-call self and total times (ms), in span order, for run.py to sum
  // or take percentiles of.
  for (auto *Table : {&SelfMs, &TotalMs}) {
    Out += Table == &SelfMs ? "},\"self_ms\":{" : "},\"total_ms\":{";
    First = true;
    for (const auto &[Name, Vs] : *Table) {
      Out += (First ? "\"" : ",\"") + Name + "\":[";
      First = false;
      for (size_t I = 0; I < Vs.size(); ++I)
        Out += (I ? "," : "") + jsonNum(Vs[I]);
      Out += "]";
    }
  }
  Out += "}}\n";
  if (!writeFile(Argv[5], Out) || !writeFile(Argv[6], chromeTrace(LastSpans))) {
    std::fprintf(stderr, "lnabench: cannot write results\n");
    return 1;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Input generation
//===----------------------------------------------------------------------===//

int cmdGenCorpus(int Argc, char **Argv) {
  if (Argc != 4) {
    std::fprintf(stderr, "usage: lnabench gen-corpus SEED DIR\n");
    return 1;
  }
  CorpusOptions Opts;
  Opts.Seed = std::strtoull(Argv[2], nullptr, 0);
  std::string Dir = Argv[3];
  if (Dir == "-") {
    for (const ModuleSpec &M : generateCorpus(Opts))
      std::printf("{\"name\":\"%s\",\"expected\":[%u,%u,%u],"
                  "\"source\":\"%s\"}\n",
                  jsonEscape(M.Name).c_str(), M.Expected.NoConfine,
                  M.Expected.ConfineInference, M.Expected.AllStrong,
                  jsonEscape(M.Source).c_str());
    return 0;
  }
  std::filesystem::create_directories(Dir);
  std::string Expected;
  for (const ModuleSpec &M : generateCorpus(Opts)) {
    std::string File = Dir + "/" + M.Name + ".lna";
    if (!writeFile(File, M.Source))
      return 1;
    Expected += File + " " + tripleText(M.Expected) + "\n";
  }
  return writeFile(Dir + "/expected.tsv", Expected) ? 0 : 1;
}

int cmdGenModule(int Argc, char **Argv) {
  if (Argc < 6 || (Argc - 2) % 4 != 0) {
    std::fprintf(stderr, "usage: lnabench gen-module CATEGORY SEED SIZE FILE "
                         "[CATEGORY SEED SIZE FILE ...]\n");
    return 1;
  }
  const std::map<std::string, ModuleCategory> Categories = {
      {"clean", ModuleCategory::Clean},
      {"buggy", ModuleCategory::Buggy},
      {"recoverable", ModuleCategory::Recoverable},
      {"hard", ModuleCategory::Hard}};
  for (int A = 2; A < Argc; A += 4) {
    auto It = Categories.find(Argv[A]);
    if (It == Categories.end()) {
      std::fprintf(stderr, "lnabench: unknown category '%s'\n", Argv[A]);
      return 1;
    }
    ModuleSpec M =
        generateModule(It->second, std::strtoull(Argv[A + 1], nullptr, 0),
                       static_cast<uint32_t>(std::atoi(Argv[A + 2])));
    if (!writeFile(Argv[A + 3], M.Source))
      return 1;
    std::printf("%s\n", tripleText(M.Expected).c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Cmd = Argc > 1 ? Argv[1] : "";
  if (Cmd == "gen-corpus")
    return cmdGenCorpus(Argc, Argv);
  if (Cmd == "gen-module")
    return cmdGenModule(Argc, Argv);
  if (Cmd == "trace")
    return cmdTrace(Argc, Argv);
  std::fprintf(stderr, "usage: lnabench gen-corpus|gen-module|trace ...\n");
  return 1;
}
