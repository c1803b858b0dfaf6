#!/usr/bin/env python3
"""The lna benchmark: three workloads, end-to-end metrics and a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload corpus|large-modules|serve-mixed \
        --seed N --seconds S --trace 0|1

It builds lna-analyze, lna-corpus, lna-serve and the helper `lnabench`
from the checkout's sources into .bench_build/, generates the workload's
inputs from --seed under .bench_work/, measures for --seconds seconds,
checks every answer, and prints a report followed by one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured through the real tools
with no tracing. --trace 1 reports the per-layer metrics of a separate
traced run (see perfbench/README.md for every metric and workload).
"""

import argparse
import gc
import glob
import hashlib
import itertools
import json
import math
import os
import random
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join('.bench_build', 'cmake')
WORK = '.bench_work'
TOOL_DIR = os.path.join(BUILD, 'lna-tools')
LNABENCH = os.path.join(BUILD, 'lnabench')

PAPER_SEED = 0x15A2003
PAPER_POTENTIAL, PAPER_ACTUAL = 3277, 3116
# Flag sets of lna-analyze / lna-serve requests and the member of the
# generator's (no-confine, confine, all-strong) triple each one reports.
FLAG_SETS = [[], ['--check'], ['--check', '--all-strong']]
TRIPLE_INDEX = [1, 0, 2]
CHILD_TIMEOUT_S = 120
REPLY_TIMEOUT_S = 10.0
JOBS = min(4, os.cpu_count() or 1)  # lna-corpus --jobs and build jobs



class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def tail_percentile(samples, candidates=(99.9, 99, 95, 90, 75)):
    """The highest candidate percentile with at least ten samples beyond it.

    Nearest-rank percentiles. Returns (percentile, value), or None when
    even the lowest candidate has fewer than ten samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in candidates:
        rank = math.ceil(round(p * n / 100.0, 6))
        if rank >= 1 and n - rank >= 10:
            return p, xs[rank - 1]
    return None


def describe(samples):
    """Median, the tail percentile the rule allows, and the sample count."""
    if not samples:
        return 'n=0'
    tail = tail_percentile(samples)
    text = 'p50 %.4g' % statistics.median(samples)
    if tail:
        text += ', p%g %.4g' % tail
    return text + ', n=%d' % len(samples)


def median(xs):
    return statistics.median(xs) if xs else float('nan')


# --------------------------------------------------------------------------
# Children
# --------------------------------------------------------------------------

LIVE = []  # Popen objects not yet reaped


def child_env():
    env = dict(os.environ)
    # ConstraintSystem's constructor reads it; a stray value would
    # silently switch solvers under the benchmark.
    env.pop('LNA_SOLVER_BASELINE', None)
    env['TMPDIR'] = os.path.abspath(os.path.join(WORK, 'tmp'))
    return env


def run_child(args, cwd=None, timeout=CHILD_TIMEOUT_S):
    """Runs one child to completion.

    Returns (exit, wall seconds, peak RSS MB, stdout bytes, stderr bytes).
    Output goes through pipes, never files: on this kind of file system,
    truncating or deleting files slows every allocation for seconds after.
    """
    t0 = time.perf_counter()
    p = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         cwd=cwd, env=child_env())
    LIVE.append(p)
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
    reader.start()
    try:
        out = p.stdout.read()
        reader.join()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    LIVE.remove(p)
    return p.returncode, wall, usage.ru_maxrss / 1024.0, out, err[0]


def stop_children():
    for p in list(LIVE):
        if p.poll() is None:
            p.kill()
        p.wait()
        LIVE.remove(p)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def build():
    if not (os.path.isfile(os.path.join('src', 'CMakeLists.txt')) and
            os.path.isfile(os.path.join('tools', 'CMakeLists.txt'))):
        raise BenchError('lna sources (src/, tools/) not found next to '
                         'perfbench/; run from the root of a checkout')
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD, 'build.log')
    with open(logf, 'ab') as f:
        if not os.path.isfile(os.path.join(BUILD, 'CMakeCache.txt')):
            rc = subprocess.call(['cmake', '-S', 'perfbench', '-B', BUILD,
                                  '-DCMAKE_BUILD_TYPE=RelWithDebInfo'],
                                 stdout=f, stderr=f)
            if rc:
                raise BenchError('cmake configure failed; see ' + logf)
        rc = subprocess.call(['cmake', '--build', BUILD, '-j', str(JOBS),
                              '--target', 'lna-analyze', 'lna-corpus',
                              'lna-serve', 'lnabench'], stdout=f, stderr=f)
        if rc:
            raise BenchError('build failed; see ' + logf)


def tool(name):
    return os.path.join(TOOL_DIR, name)


def provenance(seed):
    """nproc, compiler, build type, commit and seed of this result."""
    cache = {}
    with open(os.path.join(BUILD, 'CMakeCache.txt')) as f:
        for line in f:
            if '=' in line and ':' in line.split('=', 1)[0]:
                key, value = line.rstrip('\n').split('=', 1)
                cache[key.split(':')[0]] = value
    compiler = cache.get('CMAKE_CXX_COMPILER', 'c++')
    try:
        version = subprocess.run([compiler, '--version'], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ''
    if not commit:
        # Checkouts without git metadata: a digest of the sources built.
        h = hashlib.sha256()
        for path in sorted(glob.glob('src/**/*', recursive=True) +
                           glob.glob('tools/*')):
            if os.path.isfile(path):
                h.update(path.encode())
                with open(path, 'rb') as f:
                    h.update(f.read())
        commit = 'source-sha256:' + h.hexdigest()[:16]
    return {'nproc': os.cpu_count(), 'compiler': version,
            'build_type': cache.get('CMAKE_BUILD_TYPE', ''),
            'commit': commit, 'seed': seed}


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

def read_expected(path):
    """file -> (no-confine, confine, all-strong) from an expected.tsv."""
    out = {}
    with open(path) as f:
        for line in f:
            name, nc, ci, st = line.split()
            out[name] = (int(nc), int(ci), int(st))
    return out


def gen_corpus(seed, rel_dir):
    """Generates one seeded corpus under WORK/rel_dir; paths relative to WORK."""
    rc = run_child([os.path.abspath(LNABENCH), 'gen-corpus', str(seed),
                    rel_dir], cwd=WORK)[0]
    if rc:
        raise BenchError('corpus generation failed for seed %d' % seed)
    return read_expected(os.path.join(WORK, rel_dir, 'expected.tsv'))


def gen_modules(specs):
    """Writes [(category, seed, size, WORK path)]; returns their triples."""
    args = [os.path.abspath(LNABENCH), 'gen-module']
    for spec in specs:
        args += [str(x) for x in spec]
    rc, _, _, out, _ = run_child(args, cwd=WORK)
    if rc:
        raise BenchError('module generation failed')
    return [tuple(int(x) for x in line.split())
            for line in out.decode().splitlines()]


def read_source(rel_path):
    with open(os.path.join(WORK, rel_path), encoding='utf-8') as f:
        return f.read()


def lock_errors(report):
    """The N of a report's 'lock analysis...: N unverifiable site(s)'."""
    for line in report.splitlines():
        if line.startswith('lock analysis'):
            try:
                return int(line.split(': ', 1)[1].split()[0])
            except (IndexError, ValueError):
                return None
    return None


# --------------------------------------------------------------------------
# Correctness checks (pure functions; perfbench/test_run.py covers them)
# --------------------------------------------------------------------------

def check_corpus_report(report, expected, paper=False):
    """Failed modules of one lna-corpus --json report.

    A module fails when its row is missing, not ok, or its triple differs
    from the generator's. With paper=True the run must also reproduce the
    paper's 3277 potential / 3116 eliminated errors.
    """
    failures = []
    rows = {m['name']: m for m in report.get('modules', [])}
    for name, triple in expected.items():
        m = rows.get(name)
        if m is None or not m.get('ok'):
            failures.append('%s: missing or failed row' % name)
        elif (m['no_confine'], m['confine_inference'],
              m['all_strong']) != triple:
            failures.append('%s: expected %s, got %s' % (
                name, triple, (m['no_confine'], m['confine_inference'],
                               m['all_strong'])))
    if paper:
        s = report.get('summary', {})
        if (s.get('potential_eliminations'),
                s.get('actual_eliminations')) != (PAPER_POTENTIAL,
                                                  PAPER_ACTUAL):
            failures.append('paper seed: %s/%s, expected %d/%d' % (
                s.get('potential_eliminations'),
                s.get('actual_eliminations'), PAPER_POTENTIAL, PAPER_ACTUAL))
    return failures


def check_reply(raw, triple, flag_set):
    """None when a serve reply is a correct answer, else why not."""
    try:
        r = json.loads(raw)
    except ValueError:
        return 'malformed reply'
    if not r.get('ok'):
        return 'error reply: %s' % r.get('error')
    want = triple[TRIPLE_INDEX[flag_set]]
    got = lock_errors(r.get('out', ''))
    if got != want:
        return 'lock errors %s, expected %d' % (got, want)
    if r.get('cache') not in ('hot', 'cold', 'miss'):
        return 'unexpected cache tier %r' % r.get('cache')
    return None


# --------------------------------------------------------------------------
# lna-serve client
# --------------------------------------------------------------------------

def request_line(rid, source, flag_set):
    return (json.dumps({'id': rid, 'cmd': 'analyze', 'source': source,
                        'flags': FLAG_SETS[flag_set]}) + '\n').encode()


def reply_id(raw):
    """The numeric id of a reply line, read without a full JSON parse."""
    if raw.startswith(b'{"id":'):
        end = raw.find(b',', 6)
        try:
            return int(raw[6:end])
        except ValueError:
            return None
    return None


class Client:
    """Connections to one daemon, read through one selector.

    Every request gets its reply or, after REPLY_TIMEOUT_S, is recorded as
    failed; a reply never arrives late into the wrong slot because
    replies are matched by id.
    """

    def __init__(self, sock_path, conns, reply_timeout=REPLY_TIMEOUT_S):
        # select(2) sleeps with microsecond resolution; epoll rounds short
        # open-loop waits up to whole milliseconds.
        self.sel = selectors.SelectSelector()
        self.socks = []
        self.bufs = {}
        self.timeout = reply_timeout
        for _ in range(conns):
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(sock_path)
            self.socks.append(s)
            self.bufs[s] = b''
            self.sel.register(s, selectors.EVENT_READ)

    def close(self):
        for s in self.socks:
            if s in self.sel.get_map():
                self.sel.unregister(s)
            s.close()
        self.sel.close()

    def poll(self, timeout):
        """[(conn index, reply bytes, receive time)] for complete replies."""
        out = []
        for key, _ in self.sel.select(timeout):
            s = key.fileobj
            try:
                data = s.recv(1 << 20)
            except OSError:
                data = b''  # a reset connection answers nothing more
            now = time.perf_counter()
            if not data:
                self.sel.unregister(s)
                continue
            buf = self.bufs[s] + data
            while True:
                nl = buf.find(b'\n')
                if nl < 0:
                    break
                out.append((self.socks.index(s), buf[:nl], now))
                buf = buf[nl + 1:]
            self.bufs[s] = buf
        return out

    def closed_loop(self, next_request, duration, limit=None):
        """Each connection keeps one request in flight for `duration` s
        (or until `limit` requests have been sent).

        next_request() -> (line bytes, tag). Returns (samples, failed):
        samples are (tag, latency s, reply bytes).
        """
        samples, failed = [], 0
        inflight = {}  # conn index -> (tag, send time)
        end = time.perf_counter() + duration
        sent = 0

        def send(i):
            nonlocal sent, failed
            if limit is not None and sent >= limit:
                return
            sent += 1
            line, tag = next_request()
            inflight[i] = (tag, time.perf_counter())
            try:
                self.socks[i].sendall(line)
            except OSError:
                # The daemon closed the connection: the request failed.
                del inflight[i]
                failed += 1

        for i in range(len(self.socks)):
            send(i)
        while inflight:
            now = time.perf_counter()
            for i, (tag, t0) in list(inflight.items()):
                if now - t0 > self.timeout:
                    # The connection is unusable; its request failed.
                    failed += 1
                    del inflight[i]
            for i, raw, t in self.poll(0.05):
                if i not in inflight:
                    continue
                tag, t0 = inflight.pop(i)
                samples.append((tag, t - t0, raw))
                if t < end:
                    send(i)
        return samples, failed

    def open_loop(self, requests, rate):
        """Sends requests[k] at t0 + k/rate, round-robin over connections.

        Latency counts from each request's scheduled time. Returns
        (samples, failed, lateness): lateness is how late each send was.
        """
        samples, lateness = [], []
        pending = {}  # id -> (tag, scheduled time)
        t0 = time.perf_counter() + 0.01
        k = 0
        while k < len(requests) or pending:
            now = time.perf_counter()
            while k < len(requests) and t0 + k / rate <= now:
                rid, line, tag = requests[k]
                due = t0 + k / rate
                pending[rid] = (tag, due)
                try:
                    self.socks[k % len(self.socks)].sendall(line)
                except OSError:
                    pass  # never answered, so counted as failed below
                lateness.append(time.perf_counter() - due)
                k += 1
            if k < len(requests):
                wait = max(0.0, t0 + k / rate - time.perf_counter())
            else:
                oldest = min(d for _, d in pending.values())
                wait = oldest + self.timeout - time.perf_counter()
                if wait <= 0:
                    break
            for _, raw, t in self.poll(min(wait, 0.05)):
                rid = reply_id(raw)
                if rid in pending:
                    tag, due = pending.pop(rid)
                    samples.append((tag, t - due, raw))
        return samples, len(pending), lateness

    def command(self, obj):
        self.socks[0].sendall((json.dumps(obj) + '\n').encode())
        deadline = time.perf_counter() + self.timeout
        while time.perf_counter() < deadline:
            for i, raw, _ in self.poll(0.05):
                if i == 0:
                    return json.loads(raw)
        raise BenchError('daemon did not answer %s' % obj)


class Daemon:
    """One lna-serve with a fresh socket and cold-tier directory."""

    def __init__(self, name, hot_capacity, threads=4):
        self.dir = fresh_dir(os.path.join(WORK, name))
        self.cache_dir = os.path.join(self.dir, 'cache')
        self.sock = os.path.join(self.dir, 's.sock')
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [os.path.abspath(tool('lna-serve')), '--socket=s.sock',
             '--threads=%d' % threads, '--hot-capacity=%d' % hot_capacity,
             '--cache-dir=cache'], cwd=self.dir, env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        LIVE.append(self.proc)
        while True:
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(self.sock)
                s.close()
                break
            except OSError:
                s.close()
                if self.proc.poll() is not None:
                    raise BenchError('lna-serve exited at start')
                if time.perf_counter() - t0 > 30:
                    raise BenchError('lna-serve did not accept in 30 s')
                time.sleep(0.001)

    def peak_rss_mb(self):
        with open('/proc/%d/status' % self.proc.pid) as f:
            for line in f:
                if line.startswith('VmHWM:'):
                    return int(line.split()[1]) / 1024.0
        return float('nan')

    def stop(self):
        try:
            c = Client(self.sock, 1)
            c.command({'cmd': 'shutdown'})
            c.close()
            self.proc.wait(timeout=10)
        except (OSError, BenchError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        LIVE.remove(self.proc)


# --------------------------------------------------------------------------
# Workload inputs
# --------------------------------------------------------------------------

class Inputs:
    """What one workload analyses.

    modules: [(path relative to WORK, triple)]; requests: [(module index,
    flag set)] for the traced run and its daemon phase.
    """

    def __init__(self):
        self.modules = []
        self.requests = []
        self.hot_capacity = 64


CORPORA = 3  # the paper-seed corpus plus two seeded ones


def corpus_inputs(rng, tag):
    seeds = [PAPER_SEED] + [rng.getrandbits(32) for _ in range(CORPORA - 1)]
    return [(seed, gen_corpus(seed, 'in-%s/c%d' % (tag, i)))
            for i, seed in enumerate(seeds)]


# (category, size hint): sizes are fixed, contents come from the seed.
# The three largest hard modules (~160 KB each) give latency_ms.
LARGE_MODULES = [('clean', 400), ('buggy', 400), ('recoverable', 400),
                 ('recoverable', 1500), ('hard', 120), ('hard', 200),
                 ('hard', 320), ('hard', 400), ('hard', 560), ('hard', 800),
                 ('hard', 800), ('hard', 800)]
LARGEST = max(size for cat, size in LARGE_MODULES if cat == 'hard')
CHECK_RUNS = 3


def large_inputs(rng, tag):
    fresh_dir(os.path.join(WORK, 'in-' + tag))
    specs = [(cat, rng.getrandbits(32), size,
              'in-%s/%02d-%s%d.lna' % (tag, i, cat, size))
             for i, (cat, size) in enumerate(LARGE_MODULES)]
    return [(spec[3], triple)
            for spec, triple in zip(specs, gen_modules(specs))]


def corpus_in_memory(seed, seen):
    """[(name, triple, source)] of one seeded corpus, without the sources
    already in `seen`; nothing is written to disk."""
    p = subprocess.run([os.path.abspath(LNABENCH), 'gen-corpus', str(seed),
                        '-'], stdout=subprocess.PIPE, env=child_env(),
                       timeout=CHILD_TIMEOUT_S)
    if p.returncode:
        raise BenchError('corpus generation failed for seed %d' % seed)
    out = []
    for line in p.stdout.splitlines():
        m = json.loads(line)
        if m['source'] not in seen:
            seen.add(m['source'])
            out.append(('%d-%s' % (seed, m['name']), tuple(m['expected']),
                        m['source']))
    return out


class ServeMix:
    """Requests for the serve workload: a seeded Zipf draw over the (module,
    flag set) keys of a working set, plus a steady share of requests for
    never-seen modules.

    The popularity order is one of ORDERS seeded permutations, picked per
    request: with a single order, a handful of top-ranked modules carry a
    quarter of the traffic and their reply sizes would set the throughput
    of the whole run.
    """

    WORKING_SET = 300
    FRESH_SHARE = 0.05
    FRESH_CORPORA = 8
    ZIPF_S = 1.0
    ORDERS = 4
    HOT_CAPACITY = 384

    def __init__(self, rng):
        seen = set()
        work = corpus_in_memory(rng.getrandbits(32), seen)
        rng.shuffle(work)
        self.modules = work[:self.WORKING_SET]
        fresh = []
        for _ in range(self.FRESH_CORPORA):
            fresh += corpus_in_memory(rng.getrandbits(32), seen)
        # Every flag set of a never-seen module is a distinct miss.
        self.fresh_keys = [(len(self.modules) + i, f)
                           for i in range(len(fresh)) for f in range(3)]
        rng.shuffle(self.fresh_keys)
        self.modules += fresh
        keys = [(m, f) for m in range(self.WORKING_SET) for f in range(3)]
        self.keys = keys
        self.orders = []
        for _ in range(self.ORDERS):
            rng.shuffle(keys)
            self.orders.append(list(keys))
        self.cum = list(itertools.accumulate(1.0 / (k + 1) ** self.ZIPF_S
                                             for k in range(len(keys))))
        self.rng = rng
        self.next_fresh = 0
        self.next_id = 0

    def draw(self):
        if self.rng.random() < self.FRESH_SHARE and \
                self.next_fresh < len(self.fresh_keys):
            key = self.fresh_keys[self.next_fresh]
            self.next_fresh += 1
            return key
        order = self.orders[self.rng.randrange(self.ORDERS)]
        return self.rng.choices(order, cum_weights=self.cum)[0]

    def line(self, key):
        """(id, request bytes, key) for one request of `key`."""
        self.next_id += 1
        m, f = key
        return self.next_id, request_line(self.next_id, self.modules[m][2],
                                          f), key


# --------------------------------------------------------------------------
# Workloads: end-to-end
# --------------------------------------------------------------------------

class Result:
    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.metrics = {}
        self.report = []  # human-readable lines

    def fail(self, why):
        self.failures.append(why)


def corpus_pass(corpora, cache, phase, res):
    """One lna-corpus process per corpus, every row checked.

    cache: the --cache-dir to use, or None. Returns (walls, peak RSS MB).
    """
    walls, peak = [], 0.0
    for seed, expected in corpora:
        args = [os.path.abspath(tool('lna-corpus')), '--jobs=%d' % JOBS,
                '--json=-']
        if cache:
            args.append('--cache-dir=' + cache)
        rc, wall, mb, out, _ = run_child(args + sorted(expected), cwd=WORK)
        walls.append(wall)
        peak = max(peak, mb)
        res.attempted += len(expected)
        if rc != 0:
            res.fail('lna-corpus exit %d (%s pass)' % (rc, phase))
            continue
        report = json.loads(out)
        for why in check_corpus_report(report, expected,
                                       paper=seed == PAPER_SEED):
            res.fail('%s pass: %s' % (phase, why))
        hits = report.get('cache', {}).get('hits')
        if phase == 'warm' and hits != len(expected):
            res.fail('warm pass served %s of %d modules from the cache' % (
                hits, len(expected)))
    return walls, peak


def corpus_e2e(rng, seconds, res):
    # Set-up, three times with the same seeds: generate the corpora and
    # populate a fresh cache directory with a cold pass that writes every
    # m- entry.
    state = rng.getstate()
    times = []
    for i in range(3):
        rng.setstate(state)
        t0 = time.perf_counter()
        corpora = corpus_inputs(rng, 's%d' % i)
        cache = 'cache-%d' % i
        fresh_dir(os.path.join(WORK, cache))
        corpus_pass(corpora, cache, 'populate', res)
        times.append(time.perf_counter() - t0)
    setup_s = statistics.median(times)
    n = sum(len(e) for _, e in corpora)
    os.sync()

    # Each cycle: an uncached pass (every module analysed, nothing
    # written) and a warm pass served from the populated cache.
    cold, warm, paper, rss = [], [], [], []
    end = time.perf_counter() + seconds
    while len(cold) < 3 or time.perf_counter() < end:
        cold_walls, cold_peak = corpus_pass(corpora, None, 'cold', res)
        warm_walls, warm_peak = corpus_pass(corpora, cache, 'warm', res)
        cold.append(sum(cold_walls))
        warm.append(sum(warm_walls))
        paper.append(cold_walls[0])  # corpora[0] is the paper-seed one
        rss.append(max(cold_peak, warm_peak))

    res.metrics = {
        'throughput_per_s': median([n / c for c in cold]),
        'heavy_ms': median([c / n * 1e3 for c in cold]),
        'light_ms': median([w / n * 1e3 for w in warm]),
        'latency_ms': median(paper) * 1e3,
        'peak_rss_mb': median(rss),
        'setup_s': setup_s,
    }
    res.report += [
        'corpus: %d corpora x 589 modules (%d modules), lna-corpus '
        '--jobs=%d, %d cold+warm cycles' % (len(corpora), n, JOBS,
                                            len(cold)),
        'corpus_cold_modules_per_s  %.1f modules/s  (%s)' % (
            res.metrics['throughput_per_s'],
            describe([n / c for c in cold])),
        'corpus_warm_modules_per_s  %.1f modules/s  (%s)' % (
            median([n / w for w in warm]), describe([n / w for w in warm])),
        'paper-seed corpus pass     %.2f ms  (%s)' % (
            res.metrics['latency_ms'], describe([x * 1e3 for x in paper])),
        'corpus_peak_rss_mb         %.1f MB' % res.metrics['peak_rss_mb'],
    ]


def large_e2e(rng, seconds, res):
    state = rng.getstate()
    times = []
    for i in range(5):
        rng.setstate(state)
        t0 = time.perf_counter()
        mods = large_inputs(rng, 'l%d' % i)
        times.append(time.perf_counter() - t0)
    setup_s = statistics.median(times)
    os.sync()

    # Each --infer run once per repetition and each --check run
    # CHECK_RUNS times (they take milliseconds, so one sample is mostly
    # process start-up noise). Sums are over per-invocation medians.
    walls = {}  # (module index, flag set) -> [seconds]
    peak = 0.0
    reps = 0
    end = time.perf_counter() + seconds
    while reps < 3 or time.perf_counter() < end:
        for i, (path, triple) in enumerate(mods):
            for fs in range(3):
                for _ in range(1 if fs == 0 else CHECK_RUNS):
                    rc, wall, mb, out, _ = run_child(
                        [os.path.abspath(tool('lna-analyze'))] +
                        FLAG_SETS[fs] + [path], cwd=WORK)
                    walls.setdefault((i, fs), []).append(wall)
                    peak = max(peak, mb)
                    res.attempted += 1
                    got = lock_errors(out.decode())
                    want = triple[TRIPLE_INDEX[fs]]
                    if rc not in (0, 3) or got != want:
                        res.fail('%s %s: exit %d, lock errors %s, expected '
                                 '%d' % (path, ' '.join(FLAG_SETS[fs]), rc,
                                         got, want))
        reps += 1
    per = {key: median(v) for key, v in walls.items()}
    infer = sum(per[(i, 0)] for i in range(len(mods)))
    check = sum(per[(i, fs)] for i in range(len(mods)) for fs in (1, 2))
    largest = [per[(i, 0)] for i, m in enumerate(LARGE_MODULES)
               if m == ('hard', LARGEST)]

    res.metrics = {
        'throughput_per_s': 3 * len(mods) / (infer + check),
        'heavy_ms': infer * 1e3,
        'light_ms': check * 1e3,
        'latency_ms': median(largest) * 1e3,
        'peak_rss_mb': peak,
        'setup_s': setup_s,
    }
    res.report += [
        'large-modules: %d modules (%d KB), 3 lna-analyze modes each, %d '
        'repetitions (--check runs %d times per repetition)' % (
            len(mods), sum(os.path.getsize(os.path.join(WORK, p))
                           for p, _ in mods) // 1024, reps, CHECK_RUNS),
        'large_infer_s      %.4f s  (sum of per-module medians)' % infer,
        'large_check_s      %.4f s  (sum of per-module medians)' % check,
        'largest --infer    %.4f s  (median of the %d largest: %s)' % (
            median(largest), len(largest),
            ', '.join('%.4f' % x for x in largest)),
        'large_peak_rss_mb  %.1f MB' % peak,
    ]


def send_all(daemon, lines, keys):
    """Sends each key once over a 4-connection closed loop."""
    client = Client(daemon.sock, 4)
    it = iter(keys)
    samples, failed = client.closed_loop(lambda: lines.line(next(it))[1:],
                                         float('inf'), limit=len(keys))
    client.close()
    return samples, failed


def serve_setup(rng, i, mix_state):
    rng.setstate(mix_state)
    mix = ServeMix(rng)
    daemon = Daemon('serve%d' % i, ServeMix.HOT_CAPACITY)
    samples, failed = send_all(daemon, mix, mix.keys)
    return mix, daemon, samples, failed


def verify_samples(samples, mix, res):
    """Checks every reply; returns {cache tier: [latency ms]}."""
    by_tier = {}
    for (m, f), lat, raw in samples:
        res.attempted += 1
        why = check_reply(raw, mix.modules[m][1], f)
        if why:
            res.fail('request for %s %s: %s' % (
                mix.modules[m][0], FLAG_SETS[f], why))
            continue
        by_tier.setdefault(json.loads(raw)['cache'], []).append(lat * 1e3)
    return by_tier


def write_module(name, source):
    """Writes one in-memory module under WORK; returns its WORK path."""
    os.makedirs(os.path.join(WORK, 'modules'), exist_ok=True)
    path = os.path.join('modules', name + '.lna')
    if not os.path.exists(os.path.join(WORK, path)):
        with open(os.path.join(WORK, path), 'w', encoding='utf-8') as f:
            f.write(source)
    return path


def identity_sample(samples, mix, rng, res, k=12):
    """A seeded sample of replies must be byte-identical to one-shot
    lna-analyze on the same flags and module file."""
    for (m, f), _, raw in rng.sample(samples, min(k, len(samples))):
        r = json.loads(raw)
        if not r.get('ok'):
            continue
        name, _, source = mix.modules[m]
        rc, _, _, out, err = run_child(
            [os.path.abspath(tool('lna-analyze'))] + FLAG_SETS[f] +
            [write_module(name, source)], cwd=WORK)
        same = (rc == r['exit'] and out == r['out'].encode() and
                err == r['err'].encode())
        res.attempted += 1
        if not same:
            res.fail('reply for %s %s differs from one-shot lna-analyze' % (
                mix.modules[m][0], FLAG_SETS[f]))


OPEN_RATE = 2000.0  # requests per second


def serve_e2e(rng, seconds, res):
    mix_state = rng.getstate()
    times, daemon = [], None
    for i in range(3):
        if daemon:
            daemon.stop()
        t0 = time.perf_counter()
        mix, daemon, pre, failed = serve_setup(rng, i, mix_state)
        times.append(time.perf_counter() - t0)
        for _ in range(failed):
            res.fail('pre-population request got no reply')
        res.attempted += len(pre) + failed
    setup_s = statistics.median(times)
    os.sync()
    try:
        client = Client(daemon.sock, 4)
        closed_s = seconds * 0.5
        samples, failed = client.closed_loop(
            lambda: mix.line(mix.draw())[1:], closed_s)
        res.attempted += failed
        for _ in range(failed):
            res.fail('closed loop: reply not received within %g s' %
                     REPLY_TIMEOUT_S)
        n_open = int(OPEN_RATE * seconds * 0.35)
        open_reqs = [mix.line(mix.draw()) for _ in range(n_open)]
        open_samples, open_failed, lateness = client.open_loop(open_reqs,
                                                               OPEN_RATE)
        res.attempted += open_failed
        for _ in range(open_failed):
            res.fail('open loop: reply not received within %g s' %
                     REPLY_TIMEOUT_S)
        stats = client.command({'cmd': 'stats'})['stats']
        client.close()
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    by_tier = verify_samples(samples, mix, res)
    verify_samples(open_samples, mix, res)
    identity_sample(samples + open_samples, mix, rng, res)
    if stats.get('protocol_errors'):
        res.fail('daemon counted %d protocol errors' %
                 stats['protocol_errors'])

    open_ms = [lat * 1e3 for _, lat, _ in open_samples]
    res.metrics = {
        'throughput_per_s': len(samples) / closed_s,
        'heavy_ms': median(by_tier.get('miss', [])),
        'light_ms': median(by_tier.get('hot', [])),
        'latency_ms': median(open_ms),
        'peak_rss_mb': rss,
        'setup_s': setup_s,
    }
    res.report += [
        'serve-mixed: lna-serve --threads=4 --hot-capacity=%d, working set '
        '%d keys, %.0f%% never-seen; closed loop 4 conns %.1f s, open loop '
        '%.0f/s' % (ServeMix.HOT_CAPACITY, len(mix.keys),
                    ServeMix.FRESH_SHARE * 100, closed_s, OPEN_RATE),
        'closed-loop replies by tier: %s; never-seen keys used %d of %d' % (
            json.dumps({t: len(v) for t, v in sorted(by_tier.items())}),
            mix.next_fresh, len(mix.fresh_keys)),
        'serve_rps          %.1f replies/s' % res.metrics['throughput_per_s'],
        'serve_hot_p50_ms   %s' % describe(by_tier.get('hot', [])),
        'serve_cold_p50_ms  %s' % describe(by_tier.get('cold', [])),
        'serve_miss_p50_ms  %s' % describe(by_tier.get('miss', [])),
        'serve_p50_ms/p99   %s (open loop, from scheduled send)' %
        describe(open_ms),
        'generator lateness %s ms' % describe([x * 1e3 for x in lateness]),
        'serve_peak_rss_mb  %.1f MB' % rss,
    ]


# --------------------------------------------------------------------------
# The traced run: per-layer metrics
# --------------------------------------------------------------------------

def traced(inputs, seconds, res):
    """Per-layer metrics over `inputs` (see README: "The traced run")."""
    m = {}
    man = os.path.join(WORK, 'manifest.txt')
    req = os.path.join(WORK, 'requests.txt')
    with open(man, 'w') as f:
        for path, triple in inputs.modules:
            f.write('%s %d %d %d\n' % ((path,) + tuple(triple)))
    with open(req, 'w') as f:
        for mi, fs in inputs.requests:
            f.write('%d %d\n' % (mi, fs))
    out = os.path.join(WORK, 'trace-result.json')
    rc, _, _, _, err = run_child(
        [os.path.abspath(LNABENCH), 'trace', 'manifest.txt', 'requests.txt',
         'trace-cache', 'trace-result.json', 'trace.json', str(seconds),
         str(inputs.hot_capacity)], cwd=WORK, timeout=170)
    if rc:
        raise BenchError('lnabench trace failed (exit %d): %s' % (
            rc, err.decode(errors='replace')[-500:]))
    with open(out) as f:
        t = json.load(f)
    res.attempted += t['attempted']
    for note in t['failure_notes']:
        res.fail('traced run: ' + note)
    for _ in range(t['failed'] - len(t['failure_notes'])):
        res.fail('traced run: (more failures)')
    c, self_ms, total_ms = t['counts'], t['self_ms'], t['total_ms']

    def layer_ms(name):
        return sum(self_ms.get(name, [0.0]))

    def per_call(name, scale):
        return median(total_ms.get(name, [])) * scale

    # Analysis layers: self time summed over one traced pass.
    m['lang.parse_ms'] = layer_ms('lang.parse')
    m['lang.ast_nodes'] = c['parse/ast-nodes']
    m['lang.parse_mb_per_s'] = (2 * c['source-bytes'] / 1e6) / (
        m['lang.parse_ms'] / 1e3)
    m['alias.typing_ms'] = layer_ms('alias.typing')
    m['alias.unifications'] = c['typing/unifications']
    m['alias.locations'] = c['typing/locations']
    m['core.confine_placement_ms'] = layer_ms('core.confine_placement')
    m['core.confines_placed'] = c['confine-placement/confines-placed']
    m['core.effect_gen_ms'] = layer_ms('core.effect_gen')
    m['effects.effect_vars'] = c['effect-constraints/effect-vars']
    m['effects.constraints_generated'] = c[
        'effect-constraints/constraints-generated']
    m['core.inference_ms'] = layer_ms('core.inference')
    m['effects.propagated_elems'] = c['inference/propagated-elems']
    m['core.cond_firings'] = c['inference/cond-firings']
    m['core.solver_rounds'] = c['inference/solver-rounds']
    m['core.restricts_kept_ratio'] = c['inference/restricts-kept'] / max(
        1, c['inference/restricts-attempted'])
    m['core.confines_kept_ratio'] = c['inference/confines-kept'] / max(
        1, c['inference/confines-attempted'])
    m['core.checksat_ms'] = layer_ms('core.checksat')
    m['qual.lock_analysis_ms'] = layer_ms('qual.lock_analysis')
    m['qual.lock_sites'] = c['lock-analysis/lock-sites']
    m['qual.lock_errors'] = c['lock-analysis/lock-errors']
    module_ms = total_ms.get('corpus.module', [])
    m['corpus.module_p50_ms'] = median(module_ms)
    tail = tail_percentile(module_ms)
    m['corpus.module_tail_ms'] = tail[1] if tail else max(module_ms)
    m['corpus.aggregate_ms'] = layer_ms('corpus.aggregate')
    m['corpus.parses_per_module'] = c['program-parse-spans'] / c[
        'program-traced-modules']
    m['corpus.sessions_per_module'] = c['program-typing-spans'] / c[
        'program-traced-modules']
    m['cache.load_us'] = per_call('cache.load', 1e3)
    m['cache.store_us'] = per_call('cache.store', 1e3)
    m['serve.json_parse_us'] = per_call('serve.json_parse', 1e3)
    m['serve.key_us'] = per_call('serve.key', 1e3)
    m['serve.hot_get_us'] = per_call('serve.hot_get', 1e3)
    m['serve.reply_escape_us'] = per_call('serve.reply_escape', 1e3)
    m['serve.run_invocation_ms'] = per_call('serve.run_invocation', 1.0)
    in_process_ms = median(total_ms.get('serve.request', []))

    # The real daemon over the same requests (untraced): its stats reply,
    # its cold-tier directory, and client latency for the queue wait.
    daemon = Daemon('trace-serve', inputs.hot_capacity)
    try:
        samples, failed = send_all(daemon, _KeyLines(inputs), inputs.requests)
        client = Client(daemon.sock, 1)
        stats_before = client.command({'cmd': 'stats'})['stats']
        client.close()
    finally:
        daemon.stop()
    res.attempted += len(samples) + failed
    for _ in range(failed):
        res.fail('traced daemon: reply not received')
    for (mi, fs), _, raw in samples:
        why = check_reply(raw, inputs.modules[mi][1], fs)
        if why:
            res.fail('traced daemon: %s' % why)
    served = max(1, stats_before['hot_hits'] + stats_before['cold_hits'] +
                 stats_before['miss_runs'])
    m['serve.hot_hit_ratio'] = stats_before['hot_hits'] / served
    m['serve.cold_hit_ratio'] = stats_before['cold_hits'] / served
    m['serve.miss_ratio'] = stats_before['miss_runs'] / served
    m['serve.hot_evictions'] = stats_before['hot_evictions']
    m['serve.queue_wait_ms'] = median(
        [lat * 1e3 for _, lat, _ in samples]) - in_process_ms
    cold = stats_before.get('cold') or {}
    m['cache.hit_ratio'] = cold.get('hits', 0) / max(
        1, cold.get('hits', 0) + cold.get('misses', 0))
    names = os.listdir(daemon.cache_dir)
    m['cache.entries_a'] = sum(n.startswith('a-') for n in names)
    m['cache.entries_s'] = sum(n.startswith('s-') for n in names)
    m['cache.s_lookups'] = c.get('cache-lookups-s', 0)

    # lna-corpus cold pass over the modules: its m- entries.
    rc = run_child([os.path.abspath(tool('lna-corpus')), '--jobs=%d' % JOBS,
                    '--cache-dir=trace-corpus'] +
                   [p for p, _ in inputs.modules], cwd=WORK)[0]
    res.attempted += 1
    if rc:
        res.fail('traced lna-corpus pass exit %d' % rc)
    entries = [os.path.join(WORK, 'trace-corpus', n)
               for n in os.listdir(os.path.join(WORK, 'trace-corpus'))
               if n.startswith('m-')]
    m['cache.entries_m'] = len(entries)
    m['cache.entry_bytes'] = statistics.mean(
        os.path.getsize(p) for p in entries) if entries else 0.0

    # lna-analyze start-up: wall time minus the in-process phases.
    smallest = min(inputs.modules,
                   key=lambda mod: os.path.getsize(os.path.join(WORK,
                                                                mod[0])))[0]
    startup = []
    for _ in range(15):
        _, wall, _, out, _ = run_child([os.path.abspath(tool('lna-analyze')),
                                        '--stats-json=-', smallest], cwd=WORK)
        total = json.loads(out.splitlines()[-1])['total_seconds']
        startup.append((wall - total) * 1e3)
    m['tools.analyze_startup_ms'] = median(startup)

    off, on = median(t['seconds_untraced']), median(t['seconds_traced'])
    m['bench.untraced_pass_s'] = off
    m['bench.traced_pass_s'] = on
    m['bench.trace_overhead_pct'] = (on - off) / off * 100.0
    res.metrics = m
    res.report += [
        'traced run: %d modules, %d requests, %d traced + %d untraced '
        'passes; spans in %s' % (len(inputs.modules), len(inputs.requests),
                                 len(t['seconds_traced']),
                                 len(t['seconds_untraced']),
                                 os.path.join(WORK, 'trace.json')),
        'pass time untraced %s s, traced %s s, overhead %.2f%%' % (
            describe(t['seconds_untraced']), describe(t['seconds_traced']),
            m['bench.trace_overhead_pct']),
        'corpus.module_tail_ms is the %s' % (
            'p%g' % tail[0] if tail else 'max'),
    ]


class _KeyLines:
    def __init__(self, inputs):
        self.inputs = inputs
        self.next_id = 0

    def line(self, key):
        self.next_id += 1
        mi, fs = key
        return self.next_id, request_line(
            self.next_id, read_source(self.inputs.modules[mi][0]), fs), key


def trace_inputs(workload, rng):
    inp = Inputs()
    if workload == 'corpus':
        _, expected = corpus_inputs(rng, 't')[0]  # the paper-seed corpus
        inp.modules = sorted(expected.items())
        inp.requests = [(rng.randrange(len(inp.modules)), rng.randrange(3))
                        for _ in range(600)]
    elif workload == 'large-modules':
        # One of the three largest hard modules keeps the run short. Every
        # key is requested twice, the second round in reverse, so a hot
        # tier of 8 serves its first requests and the cold tier the rest.
        inp.modules = large_inputs(rng, 't')[:-2]
        inp.hot_capacity = 8
        keys = [(i, f) for i in range(len(inp.modules)) for f in range(3)]
        inp.requests = keys + keys[::-1]
    else:
        mix = ServeMix(rng)
        inp.hot_capacity = ServeMix.HOT_CAPACITY
        draws = [mix.draw() for _ in range(2000)]
        used = sorted({k[0] for k in mix.keys} | {d[0] for d in draws})
        remap = {old: new for new, old in enumerate(used)}
        inp.modules = [(write_module(mix.modules[i][0], mix.modules[i][2]),
                        mix.modules[i][1]) for i in used]
        # Pre-population first, then the mixed traffic.
        inp.requests = [(remap[m], f) for m, f in mix.keys + draws]
    return inp


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

WORKLOADS = {'corpus': corpus_e2e, 'large-modules': large_e2e,
             'serve-mixed': serve_e2e}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    # Cyclic garbage collection would pause the load generator for tens
    # of milliseconds once it holds ~10^5 replies; nothing here is cyclic.
    gc.disable()
    try:
        units = load_units()
        build()
        # A new work directory per run, and nothing deleted while runs
        # go on: freeing blocks slows this file system's allocations for
        # seconds afterwards. Remove .bench_work/ by hand when idle.
        global WORK
        WORK = os.path.join('.bench_work', 'run-%d' % time.time_ns())
        os.makedirs(os.path.join(WORK, 'tmp'))
        rng = random.Random(args.seed)
        res = Result()
        if args.trace:
            traced(trace_inputs(args.workload, rng), args.seconds, res)
        else:
            WORKLOADS[args.workload](rng, args.seconds, res)
        stamp = provenance(args.seed)
    except BenchError as e:
        log('perfbench: error: %s' % e)
        return 2
    finally:
        stop_children()

    for line in res.report:
        print(line)
    print('provenance: ' + json.dumps(stamp, sort_keys=True))
    metrics = {}
    for name, unit in units['per_layer' if args.trace else 'end_to_end']:
        value = res.metrics[name]
        if not math.isfinite(value):
            res.fail('%s was not measured' % name)
            value = 0.0
        metrics[name] = {'value': value, 'unit': unit}
        print('%-32s %14.6g %s' % (name, value, unit))
    for why in res.failures[:20]:
        print('FAILED: ' + why)
    result = {'correct': not res.failures, 'attempted': res.attempted,
              'failed': len(res.failures), 'metrics': metrics}
    with open(os.path.join(WORK, 'result.json'), 'w') as f:
        json.dump({'provenance': stamp, 'workload': args.workload,
                   'trace': args.trace, **result}, f, indent=1)
    print(json.dumps(result))
    return 0


def load_units():
    """{'end_to_end'|'per_layer': [(metric, unit)]} from BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
            spec = json.load(f)
        return {kind: [(m['name'], m['unit']) for m in spec[kind]]
                for kind in ('end_to_end', 'per_layer')}
    except (OSError, ValueError, KeyError) as e:
        raise BenchError('cannot read BENCHMARK.json: %s' % e)


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
