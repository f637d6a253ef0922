"""Whole-program lock-order analysis (``repro analyze``).

The must-fail fixture in ``test_pr1_deadlock_shape_is_detected``
reproduces the PR 1 serve executor deadlock: the submit path held the
pool gate and blocked on the queue lock while the collector held the
queue lock and called back into code taking the gate.  Per-file rules
never saw it — the two acquisitions lived in different functions.
"""

from __future__ import annotations

from repro.analysis import analyze_sources
from repro.analysis.passes import get_pass


def _run(sources: dict[str, str], *pass_ids: str):
    passes = [get_pass(p) for p in pass_ids]
    return analyze_sources(sources, passes=passes)


# ---------------------------------------------------------------------------
# lock-order-cycle
# ---------------------------------------------------------------------------

PR1_DEADLOCK = '''
import threading

class Batcher:
    def __init__(self):
        self._gate = threading.Lock()
        self._queue_lock = threading.Lock()

    def submit(self, item):
        # Thread 1: gate -> queue_lock
        with self._gate:
            with self._queue_lock:
                return item

    def collect(self):
        # Thread 2: queue_lock -> gate (inverted order = deadlock)
        with self._queue_lock:
            self._reopen()

    def _reopen(self):
        with self._gate:
            return None
'''


def test_pr1_deadlock_shape_is_detected():
    findings = _run(
        {"src/app/batching.py": PR1_DEADLOCK}, "lock-order-cycle"
    )
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "lock-order-cycle"
    assert "_gate" in finding.message and "_queue_lock" in finding.message
    assert "deadlock" in finding.message


def test_consistent_order_is_not_a_cycle():
    source = '''
import threading

class Store:
    def __init__(self):
        self._a_lock = threading.Lock()
        self._b_lock = threading.Lock()

    def read(self):
        with self._a_lock:
            with self._b_lock:
                return 1

    def write(self):
        with self._a_lock:
            with self._b_lock:
                return 2
'''
    assert _run({"src/app/store.py": source}, "lock-order-cycle") == []


def test_cycle_across_files_is_detected():
    left = '''
import threading
from app.right import flush

LEFT_LOCK = threading.Lock()

def push():
    with LEFT_LOCK:
        flush()
'''
    right = '''
import threading
from app.left import LEFT_LOCK

RIGHT_LOCK = threading.Lock()

def flush():
    with RIGHT_LOCK:
        return None

def drain():
    with RIGHT_LOCK:
        with LEFT_LOCK:
            return None
'''
    findings = _run(
        {"src/app/left.py": left, "src/app/right.py": right},
        "lock-order-cycle",
    )
    assert len(findings) == 1
    assert "LEFT_LOCK" in findings[0].message
    assert "RIGHT_LOCK" in findings[0].message


def test_suppression_on_with_statement_dismisses_cycle():
    # Satellite: a disable= on any edge's with line blesses the whole
    # cycle — suppressing one edge asserts the ordering was reviewed.
    source = PR1_DEADLOCK.replace(
        "        with self._queue_lock:\n            self._reopen()",
        "        # repro-lint: disable=lock-order-cycle - reviewed: the\n"
        "        # collector only runs after submit drains (PR 1 fix).\n"
        "        with self._queue_lock:\n            self._reopen()",
    )
    assert source != PR1_DEADLOCK
    assert _run({"src/app/batching.py": source}, "lock-order-cycle") == []


def test_file_level_disable_suppresses_cycle():
    # Satellite: generated fixtures carry a file-level disable.
    source = "# repro-lint: disable-file=lock-order-cycle\n" + PR1_DEADLOCK
    assert _run({"src/app/gen.py": source}, "lock-order-cycle") == []


# ---------------------------------------------------------------------------
# lock-reacquire-via-call
# ---------------------------------------------------------------------------

def test_reacquire_through_call_chain():
    source = '''
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def bump(self):
        with self._lock:
            self._log()

    def _log(self):
        self._snapshot()

    def _snapshot(self):
        with self._lock:
            return self.n
'''
    findings = _run({"src/app/counter.py": source}, "lock-reacquire-via-call")
    assert len(findings) == 1
    finding = findings[0]
    assert "not reentrant" in finding.message
    assert "_log" in finding.message and "_snapshot" in finding.message


def test_direct_reacquire_same_with_is_not_reported_twice():
    # with self._lock: with self._lock: is the per-file rule's job
    # (nested-acquisition branch of lock-blocking-call), not this pass's.
    source = '''
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()

    def f(self):
        with self._lock:
            return 1

    def g(self):
        with self._lock:
            return 2
'''
    assert _run({"src/app/c.py": source}, "lock-reacquire-via-call") == []


def test_foreign_annotated_local_is_not_resolved_by_method_name():
    # ``executor`` is a stdlib pool; its ``submit`` must not resolve to
    # the program's only ``submit`` method and fake a reacquire.
    source = '''
import threading
from concurrent.futures import ProcessPoolExecutor

class Pool:
    def __init__(self):
        self._lock = threading.Lock()
        self._executor = ProcessPoolExecutor()

    def submit(self, fn):
        return self._dispatch(fn)

    def _dispatch(self, fn):
        with self._lock:
            executor: ProcessPoolExecutor = self._executor
            return executor.submit(fn)
'''
    assert _run({"src/app/pool.py": source}, "lock-reacquire-via-call") == []
    # Unannotated, the unique-name fallback still links the call.
    unannotated = source.replace(": ProcessPoolExecutor = ", " = ")
    assert len(_run({"src/app/pool.py": unannotated}, "lock-reacquire-via-call")) == 1


# ---------------------------------------------------------------------------
# lock-held-call-acquires (observe-only)
# ---------------------------------------------------------------------------

def test_held_call_edge_is_warning_not_gating():
    source = '''
import threading

class Router:
    def __init__(self):
        self._route_lock = threading.Lock()

    def route(self, handle):
        with self._route_lock:
            return handle.estimate()

class Handle:
    def __init__(self):
        self._stats_lock = threading.Lock()

    def estimate(self):
        with self._stats_lock:
            return 0.0
'''
    findings = _run({"src/app/router.py": source}, "lock-held-call-acquires")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.severity.value == "warning"
    assert "_route_lock" in finding.message
    assert "_stats_lock" in finding.message


def test_guarded_by_annotation_names_a_lock():
    # An attribute that does not match the lock regex still counts when
    # a guarded-by annotation declares it.
    source = '''
import threading

class Pool:
    def __init__(self):
        self.barrier = threading.Lock()
        self.jobs = []  # guarded-by: barrier
        self._lock = threading.Lock()

    def a(self):
        with self.barrier:
            with self._lock:
                return 1

    def b(self):
        with self._lock:
            with self.barrier:
                return 2
'''
    findings = _run({"src/app/pool.py": source}, "lock-order-cycle")
    assert len(findings) == 1
    assert "barrier" in findings[0].message
