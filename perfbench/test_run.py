#!/usr/bin/env python3
"""Self-tests for the benchmark's own logic (no build needed).

    python3 perfbench/test_run.py

Covers the percentile rule, that a wrong expected triple is counted as a
failure, and that a withheld daemon reply is counted as a failure rather
than hanging the client.
"""

import os
import socket
import sys
import threading
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(run.tail_percentile(range(1000)), (99, 989))
        self.assertEqual(run.tail_percentile(range(999))[0], 95)

    def test_highest_qualifying_percentile_wins(self):
        self.assertEqual(run.tail_percentile(range(10000))[0], 99.9)
        self.assertEqual(run.tail_percentile(range(100))[0], 90)

    def test_too_few_samples_report_no_percentile(self):
        self.assertIsNone(run.tail_percentile(range(19)))
        self.assertEqual(run.tail_percentile(range(40))[0], 75)
        self.assertEqual(run.describe([1.0] * 10), 'p50 1, n=10')

    def test_fixed_percentile(self):
        self.assertIsNone(run.tail_percentile(range(999), candidates=(99,)))


def corpus_report(rows, potential=3277, actual=3116):
    return {'summary': {'potential_eliminations': potential,
                        'actual_eliminations': actual},
            'modules': [{'name': n, 'ok': True, 'no_confine': t[0],
                         'confine_inference': t[1], 'all_strong': t[2]}
                        for n, t in rows.items()]}


class ExpectedTriples(unittest.TestCase):
    ROWS = {'a.lna': (3, 1, 0), 'b.lna': (0, 0, 0)}

    def test_matching_triples_pass(self):
        self.assertEqual(run.check_corpus_report(
            corpus_report(self.ROWS), dict(self.ROWS), paper=True), [])

    def test_wrong_expected_triple_is_a_failure(self):
        expected = dict(self.ROWS, **{'a.lna': (3, 2, 0)})
        failures = run.check_corpus_report(corpus_report(self.ROWS), expected)
        self.assertEqual(len(failures), 1)
        self.assertIn('a.lna', failures[0])

    def test_missing_or_failed_row_is_a_failure(self):
        report = corpus_report(self.ROWS)
        report['modules'][1]['ok'] = False
        expected = dict(self.ROWS, **{'c.lna': (1, 1, 1)})
        self.assertEqual(len(run.check_corpus_report(report, expected)), 2)

    def test_paper_totals_are_checked(self):
        failures = run.check_corpus_report(
            corpus_report(self.ROWS, actual=3115), dict(self.ROWS), paper=True)
        self.assertEqual(len(failures), 1)

    def test_reply_with_wrong_lock_count_is_a_failure(self):
        raw = ('{"id":1,"ok":true,"exit":3,"cache":"miss","out":"lock '
               'analysis: 2 unverifiable site(s)\\n","err":""}').encode()
        self.assertIsNone(run.check_reply(raw, (5, 2, 0), 0))
        self.assertIsNotNone(run.check_reply(raw, (5, 2, 0), 1))
        self.assertIsNotNone(run.check_reply(b'{"ok":false}', (0, 0, 0), 0))


class FakeDaemon:
    """Answers each request line with a well-formed reply echoing its id,
    except the request with id `withhold`, whose reply never comes; with
    `hang_up`, the daemon closes that connection instead."""

    def __init__(self, path, withhold, hang_up=False):
        self.withhold = withhold
        self.hang_up = hang_up
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(path)
        self.listener.listen()
        self.conns = []
        threading.Thread(target=self.accept, daemon=True).start()

    def accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.conns.append(conn)
            threading.Thread(target=self.serve, args=(conn,),
                             daemon=True).start()

    def serve(self, conn):
        buf = b''
        while True:
            try:
                data = conn.recv(65536)
            except OSError:
                return
            if not data:
                return
            buf += data
            while b'\n' in buf:
                line, buf = buf.split(b'\n', 1)
                rid = run.json.loads(line)['id']
                if rid == self.withhold and self.hang_up:
                    conn.close()
                    return
                if rid != self.withhold:
                    conn.sendall(b'{"id":%d,"ok":true,"exit":0,"cache":"hot",'
                                 b'"out":"","err":""}\n' % rid)

    def close(self):
        self.listener.close()
        for c in self.conns:
            c.close()


class WithheldReply(unittest.TestCase):
    def setUp(self):
        os.chdir(run.ROOT)
        self.dir = run.fresh_dir(os.path.join(run.WORK, 'selftest'))
        self.path = os.path.join(self.dir, 'fake.sock')
        self.daemon = FakeDaemon(self.path, withhold=3)

    def tearDown(self):
        self.daemon.close()
        run.shutil.rmtree(self.dir, ignore_errors=True)

    def requests(self, n):
        return [(i, run.request_line(i, 'src', 0), i) for i in range(1, n + 1)]

    def test_closed_loop_counts_withheld_reply(self):
        client = run.Client(self.path, 1, reply_timeout=0.3)
        reqs = iter(self.requests(5))
        samples, failed = client.closed_loop(lambda: next(reqs)[1:],
                                             float('inf'), limit=5)
        client.close()
        # The connection that lost a reply is retired with it.
        self.assertEqual((len(samples), failed), (2, 1))

    def test_closed_connection_is_a_failure_not_a_crash(self):
        self.daemon.close()
        path = os.path.join(self.dir, 'hangup.sock')
        self.daemon = FakeDaemon(path, withhold=3, hang_up=True)
        client = run.Client(path, 1, reply_timeout=0.3)
        reqs = iter(self.requests(5))
        samples, failed = client.closed_loop(lambda: next(reqs)[1:],
                                             float('inf'), limit=5)
        client.close()
        self.assertEqual((len(samples), failed), (2, 1))

    def test_open_loop_counts_withheld_reply(self):
        client = run.Client(self.path, 2, reply_timeout=0.3)
        samples, failed, lateness = client.open_loop(self.requests(8), 200.0)
        client.close()
        self.assertEqual((len(samples), failed), (7, 1))
        self.assertEqual(len(lateness), 8)


if __name__ == '__main__':
    unittest.main()
