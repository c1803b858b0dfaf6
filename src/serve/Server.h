//===- Server.h - Resident analysis daemon core ---------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine behind tools/lna-serve: a resident analysis service on a
/// Unix-domain socket. One JSON request per line, one JSON reply per
/// line. A client may pipeline requests; their replies on one
/// connection may come out of order (requests run concurrently), so
/// replies echo the request's "id" for correlation.
///
/// Requests:
///
///   {"id":"r1","cmd":"analyze","source":"<program>","flags":[...]}
///   {"id":"r2","cmd":"infer",  "source":..., "flags":[...]}   forces --infer
///   {"id":"r3","cmd":"explain","source":..., "flags":[...]}   forces --explain
///   {"cmd":"stats"}                                           server stats
///   {"cmd":"shutdown"}                                        graceful stop
///
/// "flags" is the lna-analyze flag language verbatim, minus positional
/// files, --cache-dir, and server-side file outputs (--trace-out and
/// FILE targets of --stats-json/--metrics-out; their '-' in-band forms
/// stay allowed). Replies:
///
///   {"id":"r1","ok":true,"exit":0,"cache":"hot","out":"...","err":"..."}
///   {"id":"r4","ok":false,"error":"..."}           protocol-level failure
///
/// "exit"/"out"/"err" are byte-identical to running `lna-analyze
/// <flags> <file>` on the same source: both faces run the same
/// runInvocation() (serve/Invocation.h). "cache" says how the answer
/// was produced: "hot" (in-memory LRU of finished invocations, content
/// addressed -- an unchanged module is answered without re-parsing or
/// re-solving, an edited one hashes to a new key and invalidates only
/// itself), "cold" (the on-disk CacheStore shared with the CLI's
/// --cache-dir), "miss" (analyzed live, then published to both tiers),
/// or "bypass" (live observability flags; never cached, exactly like
/// the CLI).
///
/// Concurrency: the main thread owns poll(2) over the listener, a
/// self-pipe (signals/shutdown), and every connection; complete request
/// lines are dispatched to a support/ThreadPool. Each request runs
/// under its own ResourceBudget/TraceSink/MetricsRegistry via the
/// thread-local scopes inside runInvocation(), and the worker scrubs
/// the thread's obs slots around the request (exchangeThreadTraceSink /
/// exchangeThreadMetrics), so pooled threads give every request
/// fresh-process isolation. Replies go through a per-connection outbound
/// buffer: the worker writes what the socket takes without blocking and
/// the poll loop drains the rest on POLLOUT, so a slow reader delays its
/// replies but never loses one. When the peer stops sending (EOF, or a
/// protocol error), the connection stays registered until its in-flight
/// requests are answered and its buffer has drained, then is shut down
/// so the client sees EOF; one whose write fails is shut down at once.
/// Connection lifetime is shared_ptr-managed: the fd closes only when
/// the last queued worker reply drops its reference, so a late reply
/// never writes into a recycled fd.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_SERVE_SERVER_H
#define LNA_SERVE_SERVER_H

#include "cache/CacheStore.h"
#include "obs/EventJournal.h"
#include "serve/HotStore.h"
#include "serve/Invocation.h"
#include "serve/Json.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>

namespace lna {

struct ServerOptions {
  std::string SocketPath;
  /// Cold tier directory ('' = hot tier only).
  std::string CacheDir;
  /// Worker threads; 0 = hardware concurrency.
  unsigned Threads = 0;
  /// Hot-tier capacity in finished invocations.
  size_t HotCapacity = 128;
  /// JSONL lifecycle journal ('' = off).
  std::string EventsOut;
  /// Default per-request budget, applied when a request sets no budget
  /// flag of its own. Changes the invocation key exactly like the
  /// corresponding CLI flags would.
  ResourceLimits DefaultLimits;
  /// A request line larger than this is a protocol error (the
  /// connection is dropped after an error reply).
  size_t MaxRequestBytes = 32u << 20;
};

/// The resident daemon. start() binds the socket; serveForever() runs
/// the poll loop until a shutdown request or requestStop().
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds/listens, opens the cold store and the journal. False (with
  /// \p Error set) when the socket cannot be bound or the cache
  /// directory is unusable.
  bool start(std::string &Error);

  /// Accept/dispatch loop; returns the daemon exit status (0 on a
  /// clean shutdown). Call start() first.
  int serveForever();

  /// Asks the loop to stop; async-signal-safe (one write to a
  /// self-pipe), so signal handlers may call it.
  void requestStop();

  const ServerOptions &options() const { return Opts; }

private:
  struct Conn {
    int Fd = -1;
    uint64_t Id = 0;
    LineBuffer In; ///< poll loop only
    /// Guards the fields below, written by workers and the poll loop.
    std::mutex Mutex;
    std::string Out;       ///< framed replies the socket has not taken
    uint32_t InFlight = 0; ///< dispatched requests not yet answered
    bool Closing = false;  ///< the peer is done sending; no more reads
    bool Dead = false;     ///< a write failed; the socket is shut down
    ~Conn();
  };

  void handleConnReadable(const std::shared_ptr<Conn> &C);
  /// Worker-thread entry: process one request line, queue one reply.
  void handleLine(std::shared_ptr<Conn> C, std::string Line);
  /// Builds the reply for one line. Sets \p Shutdown for "shutdown".
  std::string processLine(const std::string &Line, bool &Shutdown);
  std::string runAnalyzeCmd(const std::string &IdField,
                            const std::string &Cmd, const JsonValue &Req);
  std::string statsReply(const std::string &IdField) const;
  /// Appends one framed reply to \p C's outbound buffer and writes what
  /// the socket takes; \p Answers marks the reply to a dispatched
  /// request. Wakes the poll loop when it has work left for \p C.
  void sendReply(Conn &C, std::string_view Reply, bool Answers);
  /// Writes \p C's buffer until the socket would block; on a write
  /// error marks it dead and shuts the socket down. Caller holds Mutex.
  static void flushLocked(Conn &C);
  /// Wakes the poll loop (one byte on the self-pipe).
  void wake();

  ServerOptions Opts;
  UnixListener Listener;
  std::unique_ptr<CacheStore> Cold;
  HotStore Hot;
  std::unique_ptr<ThreadPool> Pool;
  EventJournal Journal;
  int WakePipe[2] = {-1, -1}; ///< self-pipe: [0] polled, [1] written
  std::atomic<bool> StopRequested{false};
  std::map<int, std::shared_ptr<Conn>> Conns; ///< poll loop only
  uint64_t NextConnId = 1;
  std::chrono::steady_clock::time_point StartTime;

  // Served-request accounting (worker threads bump; stats reads).
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> HotHits{0};
  std::atomic<uint64_t> ColdHits{0};
  std::atomic<uint64_t> MissRuns{0};
  std::atomic<uint64_t> BypassRuns{0};
  std::atomic<uint64_t> ProtocolErrors{0};
};

} // namespace lna

#endif // LNA_SERVE_SERVER_H
