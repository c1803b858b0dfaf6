//===- Server.cpp - Resident analysis daemon core -------------------------===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Json.h"
#include "support/Stats.h"
#include "support/Version.h"

#include <cerrno>
#include <cmath>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace lna;

Server::Conn::~Conn() {
  if (Fd >= 0)
    ::close(Fd);
}

Server::Server(ServerOptions O) : Opts(std::move(O)), Hot(Opts.HotCapacity) {}

Server::~Server() {
  // Drain workers before the connections they hold references to are
  // the last owners of their fds, and before Cold/Journal go away.
  Pool.reset();
  Conns.clear();
  for (int Fd : WakePipe)
    if (Fd >= 0)
      ::close(Fd);
}

bool Server::start(std::string &Error) {
  if (!Opts.EventsOut.empty() && !Journal.open(Opts.EventsOut)) {
    Error = "cannot open events journal '" + Opts.EventsOut + "'";
    return false;
  }
  if (!Opts.CacheDir.empty()) {
    Cold = std::make_unique<CacheStore>(Opts.CacheDir);
    if (!Cold->ok()) {
      Error = "cannot use cache directory '" + Opts.CacheDir + "'";
      return false;
    }
  }
  if (::pipe(WakePipe) != 0) {
    Error = "cannot create wake pipe";
    return false;
  }
  setNonBlocking(WakePipe[0]);
  setNonBlocking(WakePipe[1]);
  if (!Listener.listen(Opts.SocketPath, Error))
    return false;
  setNonBlocking(Listener.fd());
  unsigned Threads = Opts.Threads;
  if (Threads == 0) {
    Threads = std::thread::hardware_concurrency();
    if (Threads == 0)
      Threads = 2;
  }
  Pool = std::make_unique<ThreadPool>(Threads);
  StartTime = std::chrono::steady_clock::now();
  Journal.event("serve-start")
      .str("socket", Opts.SocketPath)
      .num("threads", Pool->numThreads())
      .num("hot-capacity", Opts.HotCapacity)
      .str("cache-dir", Opts.CacheDir);
  return true;
}

void Server::requestStop() {
  StopRequested.store(true, std::memory_order_relaxed);
  wake();
}

void Server::wake() {
  // Async-signal-safe; a full pipe already guarantees a wakeup.
  ssize_t Ignored = ::write(WakePipe[1], "x", 1);
  (void)Ignored;
}

int Server::serveForever() {
  std::vector<pollfd> Fds;
  std::vector<std::shared_ptr<Conn>> Polled;
  while (!StopRequested.load(std::memory_order_relaxed)) {
    Fds.clear();
    Polled.clear();
    Fds.push_back({WakePipe[0], POLLIN, 0});
    Fds.push_back({Listener.fd(), POLLIN, 0});
    for (auto It = Conns.begin(); It != Conns.end();) {
      Conn &C = *It->second;
      short Events;
      bool Done;
      {
        std::lock_guard<std::mutex> Lock(C.Mutex);
        Events = static_cast<short>((C.Closing ? 0 : POLLIN) |
                                    (C.Out.empty() ? 0 : POLLOUT));
        Done = C.Dead || (C.Closing && C.InFlight == 0 && C.Out.empty());
      }
      if (Done) {
        // Every reply is out (or can never be): the client gets EOF now,
        // even while a finishing worker still holds the fd open.
        ::shutdown(C.Fd, SHUT_RDWR);
        Journal.event("conn-close").num("conn", C.Id);
        It = Conns.erase(It);
        continue;
      }
      // A closing connection waiting on its workers is not polled at
      // all: a hung-up peer would report POLLHUP on every pass.
      if (Events) {
        Fds.push_back({C.Fd, Events, 0});
        Polled.push_back(It->second);
      }
      ++It;
    }
    if (pollRetry(Fds.data(), Fds.size(), -1) < 0)
      break; // poll failed hard; nothing sane left to do
    if (Fds[0].revents) {
      char Buf[64];
      while (::read(WakePipe[0], Buf, sizeof(Buf)) > 0)
        ;
    }
    if (Fds[1].revents & POLLIN) {
      for (;;) {
        int C = Listener.accept();
        if (C < 0)
          break;
        setNonBlocking(C);
        auto NewConn = std::make_shared<Server::Conn>();
        NewConn->Fd = C;
        NewConn->Id = NextConnId++;
        Conns.emplace(C, NewConn);
        Journal.event("conn-open").num("conn", NewConn->Id);
      }
    }
    for (size_t I = 0; I < Polled.size(); ++I) {
      const pollfd &P = Fds[I + 2];
      if (P.revents & (POLLOUT | POLLERR | POLLHUP)) {
        std::lock_guard<std::mutex> Lock(Polled[I]->Mutex);
        flushLocked(*Polled[I]);
      }
      if ((P.events & POLLIN) && (P.revents & (POLLIN | POLLERR | POLLHUP)))
        handleConnReadable(Polled[I]);
    }
  }

  // Shutdown: stop accepting, let queued requests finish (the pool
  // drains its queue on destruction), give their replies a bounded
  // chance to drain, then drop the connections.
  Listener.close();
  Pool.reset();
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < Deadline) {
    Fds.clear();
    Polled.clear();
    for (auto &KV : Conns) {
      std::lock_guard<std::mutex> Lock(KV.second->Mutex);
      if (!KV.second->Dead && !KV.second->Out.empty()) {
        Fds.push_back({KV.first, POLLOUT, 0});
        Polled.push_back(KV.second);
      }
    }
    if (Fds.empty() || pollRetry(Fds.data(), Fds.size(), 100) < 0)
      break;
    for (size_t I = 0; I < Polled.size(); ++I)
      if (Fds[I].revents) {
        std::lock_guard<std::mutex> Lock(Polled[I]->Mutex);
        flushLocked(*Polled[I]);
      }
  }
  uint64_t Served = Requests.load(std::memory_order_relaxed);
  Journal.event("serve-stop").num("requests", Served);
  Conns.clear();
  return 0;
}

void Server::handleConnReadable(const std::shared_ptr<Conn> &C) {
  bool Open = C->In.fill(C->Fd);
  std::string Line;
  while (C->In.popLine(Line)) {
    {
      std::lock_guard<std::mutex> Lock(C->Mutex);
      ++C->InFlight;
    }
    auto Self = C;
    std::string Captured = std::move(Line);
    Pool->submit([this, Self, Captured]() mutable {
      handleLine(std::move(Self), std::move(Captured));
    });
    Line.clear();
  }
  if (Open && C->In.pending() > Opts.MaxRequestBytes) {
    ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    sendReply(*C, "{\"ok\":false,\"error\":\"request line exceeds " +
                      std::to_string(Opts.MaxRequestBytes) + " bytes\"}",
              false);
    Open = false;
  }
  if (!Open) {
    // No more reads; the poll loop retires the connection once its
    // in-flight requests are answered and their replies written.
    std::lock_guard<std::mutex> Lock(C->Mutex);
    C->Closing = true;
  }
}

void Server::handleLine(std::shared_ptr<Conn> C, std::string Line) {
  // Request-boundary isolation scrub: a pooled thread must enter every
  // request with clean observability slots, whatever earlier work on
  // this thread did. runInvocation's own scopes nest inside; we restore
  // the captured values after so the pool's ambient state (normally
  // nullptr) survives unchanged.
  TraceSink *PrevSink = exchangeThreadTraceSink(nullptr);
  MetricsRegistry *PrevMetrics = exchangeThreadMetrics(nullptr);
  auto T0 = std::chrono::steady_clock::now();
  bool Shutdown = false;
  std::string Reply;
  try {
    Reply = processLine(Line, Shutdown);
  } catch (...) {
    // A request must never take a worker (or, via ThreadPool::wait's
    // rethrow, the daemon) down.
    ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    Reply = "{\"ok\":false,\"error\":\"internal error processing request\"}";
  }
  exchangeThreadTraceSink(PrevSink);
  exchangeThreadMetrics(PrevMetrics);
  uint64_t Micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
  sendReply(*C, Reply, true);
  Journal.event("request").num("conn", C->Id).num("micros", Micros).flag(
      "shutdown", Shutdown);
  if (Shutdown)
    requestStop();
}

void Server::sendReply(Conn &C, std::string_view Reply, bool Answers) {
  bool Wake;
  {
    std::lock_guard<std::mutex> Lock(C.Mutex);
    if (Answers)
      --C.InFlight;
    if (!C.Dead) {
      C.Out += Reply;
      C.Out += '\n';
      flushLocked(C);
    }
    // The loop must poll for POLLOUT, or retire the connection.
    Wake = !C.Out.empty() || C.Dead || (C.Closing && C.InFlight == 0);
  }
  if (Wake)
    wake();
}

void Server::flushLocked(Conn &C) {
  size_t Sent = 0;
  while (!C.Dead && Sent < C.Out.size()) {
    ssize_t N = ::write(C.Fd, C.Out.data() + Sent, C.Out.size() - Sent);
    if (N >= 0) {
      Sent += static_cast<size_t>(N);
    } else if (errno == EINTR) {
      continue;
    } else if (wouldBlock(errno)) {
      break;
    } else {
      // The peer is gone (SIGPIPE is ignored): drop what is left and
      // shut the socket down so nothing waits on it.
      C.Dead = true;
      ::shutdown(C.Fd, SHUT_RDWR);
      C.Out.clear();
      return;
    }
  }
  C.Out.erase(0, Sent);
}

namespace {

/// The reply's "id" echo ("" when the request carried none). Strings
/// echo as strings, integral numbers as integers; anything else is
/// treated as absent.
std::string idPrefix(const JsonValue &Req) {
  const JsonValue *Id = Req.field("id");
  if (!Id)
    return "";
  if (const std::string *S = Id->asString())
    return "\"id\":\"" + jsonEscape(*S) + "\",";
  if (std::optional<double> N = Id->asNumber()) {
    double I;
    if (std::modf(*N, &I) == 0.0 && I >= -9.0e15 && I <= 9.0e15)
      return "\"id\":" + std::to_string(static_cast<long long>(I)) + ",";
  }
  return "";
}

std::string errorReply(const std::string &IdField, const std::string &Msg) {
  return "{" + IdField + "\"ok\":false,\"error\":\"" + jsonEscape(Msg) + "\"}";
}

} // namespace

std::string Server::processLine(const std::string &Line, bool &Shutdown) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  std::optional<JsonValue> Req = JsonValue::parse(Line);
  if (!Req || Req->kind() != JsonValue::Kind::Object) {
    ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    return errorReply("", "malformed request (one JSON object per line)");
  }
  std::string IdField = idPrefix(*Req);
  const JsonValue *Cmd = Req->field("cmd");
  const std::string *CmdStr = Cmd ? Cmd->asString() : nullptr;
  if (!CmdStr) {
    ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    return errorReply(IdField, "missing 'cmd'");
  }
  if (*CmdStr == "stats")
    return statsReply(IdField);
  if (*CmdStr == "shutdown") {
    Shutdown = true;
    return "{" + IdField + "\"ok\":true,\"shutdown\":true}";
  }
  if (*CmdStr == "analyze" || *CmdStr == "infer" || *CmdStr == "explain")
    return runAnalyzeCmd(IdField, *CmdStr, *Req);
  ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
  return errorReply(IdField, "unknown cmd '" + *CmdStr +
                                 "' (expected analyze/infer/explain/stats/"
                                 "shutdown)");
}

std::string Server::runAnalyzeCmd(const std::string &IdField,
                                  const std::string &Cmd,
                                  const JsonValue &Req) {
  const JsonValue *Src = Req.field("source");
  const std::string *Source = Src ? Src->asString() : nullptr;
  if (!Source) {
    ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    return errorReply(IdField, "missing 'source' (the program text)");
  }

  InvocationArgParser Parser;
  Parser.AllowPositional = false;
  Parser.AllowFileOutputs = false;
  std::string ParseErr;
  // The cmd aliases are plain flag injections, so "infer"/"explain"
  // cannot drift from what the CLI flags mean.
  if (Cmd == "infer")
    Parser.parse("--infer", ParseErr);
  else if (Cmd == "explain")
    Parser.parse("--explain", ParseErr);
  if (const JsonValue *Flags = Req.field("flags")) {
    const std::vector<JsonValue> *Arr = Flags->asArray();
    if (!Arr) {
      ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      return errorReply(IdField, "'flags' must be an array of strings");
    }
    for (const JsonValue &F : *Arr) {
      const std::string *Flag = F.asString();
      if (!Flag) {
        ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
        return errorReply(IdField, "'flags' must be an array of strings");
      }
      if (int Status = Parser.parse(*Flag, ParseErr)) {
        ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
        return "{" + IdField + "\"ok\":false,\"exit\":" +
               std::to_string(Status) + ",\"error\":\"" +
               jsonEscape(ParseErr) + "\"}";
      }
    }
  }
  InvocationOptions &O = Parser.Opts;
  if (!O.Limits.any() && Opts.DefaultLimits.any())
    O.Limits = Opts.DefaultLimits;

  const char *Tier = "miss";
  std::optional<InvocationResult> R;
  if (bypassesResultCache(O)) {
    // Same rule as the CLI: live observability output is never cached
    // (hot or cold) -- replaying would fabricate timings.
    R = runInvocation(O, *Source, nullptr);
    Tier = "bypass";
    BypassRuns.fetch_add(1, std::memory_order_relaxed);
  } else {
    std::string Key = invocationKey(O, *Source);
    if ((R = Hot.get(Key))) {
      Tier = "hot";
      HotHits.fetch_add(1, std::memory_order_relaxed);
    } else if (Cold) {
      if (std::optional<std::string> Entry = Cold->load(Key)) {
        InvocationResult Decoded;
        if (decodeInvocation(*Entry, Decoded)) {
          Hot.put(Key, Decoded, nullptr);
          R = std::move(Decoded);
          Tier = "cold";
          ColdHits.fetch_add(1, std::memory_order_relaxed);
        } else {
          Cold->noteSemanticStale();
        }
      }
    }
    if (!R) {
      std::unique_ptr<AnalysisSession> Session;
      R = runInvocation(O, *Source, Cold.get(), &Session);
      MissRuns.fetch_add(1, std::memory_order_relaxed);
      if (invocationCacheable(R->Exit)) {
        if (Cold)
          Cold->store(Key, encodeInvocation(*R));
        Hot.put(Key, *R, std::move(Session));
      }
    }
  }

  std::string Reply = "{" + IdField + "\"ok\":true,\"exit\":";
  Reply += std::to_string(R->Exit);
  Reply += ",\"cache\":\"";
  Reply += Tier;
  Reply += "\",\"out\":\"";
  Reply += jsonEscape(R->Out);
  Reply += "\",\"err\":\"";
  Reply += jsonEscape(R->Err);
  Reply += "\"}";
  return Reply;
}

std::string Server::statsReply(const std::string &IdField) const {
  uint64_t UptimeUs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - StartTime)
          .count());
  std::string S = "{" + IdField + "\"ok\":true,\"stats\":{";
  S += "\"version\":\"";
  S += jsonEscape(AnalyzerVersion);
  S += "\",\"requests\":" + std::to_string(Requests.load());
  S += ",\"hot_hits\":" + std::to_string(HotHits.load());
  S += ",\"cold_hits\":" + std::to_string(ColdHits.load());
  S += ",\"miss_runs\":" + std::to_string(MissRuns.load());
  S += ",\"bypass_runs\":" + std::to_string(BypassRuns.load());
  S += ",\"protocol_errors\":" + std::to_string(ProtocolErrors.load());
  S += ",\"hot_entries\":" + std::to_string(Hot.size());
  S += ",\"hot_sessions\":" + std::to_string(Hot.retainedSessions());
  S += ",\"hot_evictions\":" + std::to_string(Hot.evictions());
  S += ",\"threads\":" + std::to_string(Pool ? Pool->numThreads() : 0);
  S += ",\"uptime_us\":" + std::to_string(UptimeUs);
  if (Cold) {
    S += ",\"cold\":{\"hits\":" + std::to_string(Cold->hits());
    S += ",\"misses\":" + std::to_string(Cold->misses());
    S += ",\"stale\":" + std::to_string(Cold->stale());
    S += ",\"store_failures\":" + std::to_string(Cold->storeFailures());
    S += ",\"swept_temps\":" + std::to_string(Cold->sweptTempFiles());
    S += "}";
  } else {
    S += ",\"cold\":null";
  }
  S += "}}";
  return S;
}
