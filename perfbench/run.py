"""The repo benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

* ``train``          fresh ``fit`` + ``save_pipeline_dir`` processes
* ``batch-threads``  fresh ``repro batch`` processes, streaming thread plane
* ``batch-procs``    the same with ``--procs`` = the affinity count
* ``serve-http``     a ``repro serve`` child under a closed loop of
                     keep-alive connections, one JSON table per POST

Every program call is a fresh process fed inputs generated from
``--seed``.  ``--trace 0`` times calls for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` makes one traced call instead and
reports the per-layer metrics.  The last stdout line is the result
object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

WORKER_READY = "perfbench: worker ready"  # printed by launch.py in each pool worker

WORKLOADS = ("train", "batch-threads", "batch-procs", "serve-http")
AFFINITY = len(os.sched_getaffinity(0))
#: setup_s is the median of at least this many program launches; runs
#: with fewer timed calls add launches that stop once ready.
SETUP_SAMPLES = 5
#: p99_ms needs this many samples; serve rounds continue until reached.
P99_MIN_REQUESTS = 1000
#: Labels of this many seeded inputs are compared with the reloaded store.
ORACLE_SAMPLE = 100
#: No new program call starts after this much wall time in one run.
RUN_CEILING_S = 120.0


# ---------------------------------------------------------------------------
# program processes
# ---------------------------------------------------------------------------

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(pid: int) -> list[int]:
    out, stack = [], [pid]
    while stack:
        current = stack.pop()
        out.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    stack.extend(int(c) for c in handle.read().split())
        except OSError:
            continue
    return out


class Program:
    """One program process: launch time, set-up end, peak RSS, CPU.

    ``ready`` is a predicate on output lines; the set-up time is when
    the first line passing it arrives.  Peak RSS is the sum over the
    process tree of each process's VmHWM, sampled every 50 ms.
    """

    def __init__(self, argv: list[str], *, ready=None, ready_stream: str = "stderr") -> None:
        self.lines: dict[str, list[str]] = {"stdout": [], "stderr": []}
        self.ready_at: float | None = None
        self._ready = ready
        self._peaks: dict[int, int] = {}
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        self._readers = [
            threading.Thread(target=self._read, args=(name, getattr(self.proc, name), name == ready_stream), daemon=True)
            for name in ("stdout", "stderr")
        ]
        self._done = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        for thread in (*self._readers, self._sampler):
            thread.start()

    def _read(self, name: str, stream, watch: bool) -> None:
        for line in stream:
            if watch and self.ready_at is None and self._ready is not None and self._ready(line):
                self.ready_at = time.perf_counter()
            self.lines[name].append(line)

    def _sample(self) -> None:
        while not self._done.wait(0.05):
            self.sample_rss()

    def sample_rss(self) -> None:
        for pid in _descendants(self.proc.pid):
            self._peaks[pid] = max(self._peaks.get(pid, 0), _vm_hwm_kb(pid))

    @property
    def setup_s(self) -> float:
        if self.ready_at is None:
            raise checks.CheckFailed("program never reported ready: " + "".join(self.lines["stderr"][-5:]))
        return self.ready_at - self.start

    def wait(self, timeout: float = 170.0) -> None:
        """Reap the process; records wall time, CPU (with reaped children)."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
            time.sleep(0.005)
        self.end = time.perf_counter()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        if set(self._peaks) <= {self.proc.pid}:
            # A single process: the kernel's own high-water mark is exact.
            self._peaks = {self.proc.pid: max(self._peaks.get(self.proc.pid, 0), usage.ru_maxrss)}
        self._done.set()
        self._sampler.join()
        for thread in self._readers:
            thread.join()

    def stop(self) -> None:
        self.sample_rss()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        self.wait(timeout=30.0)

    def abort(self) -> None:
        """Kill the process and any workers it started."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.wait(timeout=30.0)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def peak_rss_mb(self) -> float:
        return sum(self._peaks.values()) / 1024.0


# Output lines that mark a program ready for its first table.
def FIT_READY(line: str) -> bool:  # noqa: N802 - used as a constant
    return line.strip() == "ready"


def BATCH_READY(line: str) -> bool:  # noqa: N802 - used as a constant
    """Thread plane: logged after the store load and source listing."""
    return "repro.serve.bulk: streaming " in line


def PROCS_READY(line: str) -> bool:  # noqa: N802 - used as a constant
    """Process plane: the first worker has spawned and loaded the store."""
    return line.strip() == WORKER_READY


def _repro(work: Path, trace: bool) -> list[str]:
    """argv prefix of a ``repro`` call, with the layer wrappers if traced."""
    argv = [_python(), str(HERE / "launch.py")]
    return argv + ["--hooks-out", str(work / "hooks.json")] if trace else argv


def _python() -> str:
    return sys.executable or "python3"


def _probe_setup(argv: list[str], ready, ready_stream: str = "stderr") -> float:
    """One more set-up sample: launch, wait until ready, kill."""
    job = Program(argv, ready=ready, ready_stream=ready_stream)
    while job.ready_at is None and job.proc.poll() is None and time.perf_counter() - job.start < 60:
        time.sleep(0.002)
    job.abort()
    return job.setup_s


# ---------------------------------------------------------------------------
# the store behind batch and serve
# ---------------------------------------------------------------------------

def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_store(cache: Path) -> tuple[Path, set[str]]:
    """The fixed-seed store (built once per checkout) and the content
    hashes of its training split."""
    key = _src_digest()[:16]
    store = cache / f"store-{key}"
    hashes_path = cache / f"store-{key}.train-hashes.json"
    if not (store.is_dir() and hashes_path.is_file()):
        corpus = inputs.store_corpus()
        build = cache / f"build-{os.getpid()}"
        shutil.rmtree(build, ignore_errors=True)
        build.mkdir(parents=True)
        inputs.write_corpus(corpus, build / "corpus.jsonl")
        inputs.write_corpus(corpus[:1], build / "heldout.jsonl")
        job = Program([
            _python(), str(HERE / "fit_job.py"), "--corpus", str(build / "corpus.jsonl"),
            "--heldout", str(build / "heldout.jsonl"), "--store", str(build / "store"),
            "--labels", str(build / "labels.json"),
        ])
        job.wait(timeout=600.0)
        if job.proc.returncode != 0:
            raise RuntimeError("store build failed: " + "".join(job.lines["stderr"][-20:]))
        try:
            os.replace(build / "store", store)
        except OSError:
            if not store.is_dir():  # not a concurrent run that got there first
                raise
        hashes_path.write_text(json.dumps(sorted(item.table.content_hash() for item in corpus)))
        shutil.rmtree(build, ignore_errors=True)
    return store, set(json.loads(hashes_path.read_text()))


def _disjoint(tables, train_hashes: set[str]) -> None:
    for table in tables:
        if table.content_hash() in train_hashes:
            raise checks.CheckFailed(f"input {table.name} is in the store's training split")


class Oracle:
    """``load_pipeline(store).classify`` in the benchmark's own process."""

    def __init__(self, store: Path) -> None:
        from repro.core.persistence import load_pipeline

        self.pipeline = load_pipeline(store)

    def check(self, pairs: list[tuple[dict, object]], where: str) -> None:
        checks.check_oracle([(record, self.pipeline.classify(table)) for record, table in pairs], where)


def _sample(seq: list, seed: int) -> list:
    return random.Random(seed).sample(seq, min(ORACLE_SAMPLE, len(seq)))


# ---------------------------------------------------------------------------
# metrics helpers
# ---------------------------------------------------------------------------

def _p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98] if len(values) > 1 else values[0]


def _e2e(tables_per_s, setup, latencies_ms, rss, accuracy) -> dict[str, dict]:
    metrics = {
        "tables_per_s": (tables_per_s, "tables/s"),
        "setup_s": (statistics.median(setup), "s"),
        "p50_ms": (statistics.median(latencies_ms), "ms"),
        "p99_ms": (_p99(latencies_ms), "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    metrics.update({name: (value, "ratio") for name, value in accuracy.metrics().items()})
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


class Budget:
    """Starts calls until ``seconds`` of measured time have passed."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.measured = 0.0
        self.begin = time.monotonic()

    def more(self, extra: bool = False) -> bool:
        if time.monotonic() - self.begin > RUN_CEILING_S:
            return False
        return self.measured < self.seconds or extra


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def run_train(args, work: Path) -> tuple[dict, int, int]:
    train, heldout = inputs.train_inputs(args.seed)
    _disjoint([item.table for item in heldout], {item.table.content_hash() for item in train})
    inputs.write_corpus(train, work / "train.jsonl")
    inputs.write_corpus(heldout, work / "heldout.jsonl")
    accuracy = checks.Accuracy()
    setup, fit_ms, rss, units = [], [], [], 0
    budget = Budget(args.seconds)
    from repro.core.persistence import load_pipeline

    def one(trace: bool) -> Program:
        nonlocal units
        store, labels_path = work / "store", work / "labels.json"
        shutil.rmtree(store, ignore_errors=True)
        labels_path.unlink(missing_ok=True)
        argv = [
            _python(), str(HERE / "fit_job.py"), "--corpus", str(work / "train.jsonl"),
            "--heldout", str(work / "heldout.jsonl"), "--store", str(store), "--labels", str(labels_path),
        ]
        if trace:
            argv += ["--trace-dir", str(work)]
        job = Program(argv, ready=FIT_READY, ready_stream="stdout")
        job.wait()
        if job.proc.returncode != 0:
            raise checks.CheckFailed("fit job failed: " + "".join(job.lines["stderr"][-10:]))
        times = json.loads(job.lines["stdout"][-1])
        job.fit_s = times["fit_s"] + times["save_s"]
        units += len(train)
        # The reloaded store must label the held-out split exactly as the
        # in-memory pipeline did.
        in_memory = json.loads(labels_path.read_text())
        reloaded = load_pipeline(store)
        for item, (rows, cols) in zip(heldout, in_memory, strict=True):
            record = {
                "n_rows": item.table.n_rows, "n_cols": item.table.n_cols,
                "row_labels": rows, "col_labels": cols,
            }
            annotation = reloaded.classify(item.table)
            record["hmd_depth"], record["vmd_depth"] = annotation.hmd_depth, annotation.vmd_depth
            checks.check_record(record, item.table.shape, item.table.name)
            checks.check_oracle([(record, annotation)], "train held-out")
            accuracy.add(item.annotation, rows, cols)
        return job

    if args.trace:
        job = one(trace=True)
        return _traced(work, job, units, tables_per_s=units / job.fit_s), units, 0
    while budget.more():
        job = one(trace=False)
        budget.measured += job.wall_s
        setup.append(job.setup_s)
        fit_ms.append(job.fit_s * 1e3)
        rss.append(job.peak_rss_mb)
    while len(setup) < SETUP_SAMPLES:
        setup.append(_probe_setup(job.proc.args, FIT_READY, "stdout"))
    per_s = units / (sum(fit_ms) / 1e3)
    return _e2e(per_s, setup, fit_ms, rss, accuracy), units, 0


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def run_batch(args, work: Path, cache: Path, procs: int | None) -> tuple[dict, int, int]:
    store, train_hashes = ensure_store(cache)
    expected = {e.key: e for e in inputs.batch_inputs(args.seed, work / "tables")}
    _disjoint([e.table for e in expected.values()], train_hashes)
    oracle = Oracle(store)
    ready = PROCS_READY if procs is not None else BATCH_READY
    sample = _sample(sorted(expected), args.seed)
    setup, call_ms, rss = [], [], []
    attempted = failed = 0
    budget = Budget(args.seconds)

    def one(trace: bool) -> tuple[Program, dict[str, dict]]:
        nonlocal attempted, failed
        out = work / "out.jsonl"
        out.unlink(missing_ok=True)
        argv = [*_repro(work, trace), "-v", "batch", str(work / "tables"), "--model", str(store), "--out", str(out)]
        if procs is not None:
            argv += ["--procs", str(procs)]
        if trace:
            argv += ["--trace-out", str(work / "spans.jsonl")]
        job = Program(argv, ready=ready)
        job.wait()
        if not out.is_file():
            raise checks.CheckFailed("repro batch wrote no output: " + "".join(job.lines["stderr"][-10:]))
        records = [json.loads(line) for line in out.read_text().splitlines()]
        errors = [r for r in records if "error" in r]
        attempted += len(expected)
        failed += len(errors)
        if job.proc.returncode not in (0, 1) or (job.proc.returncode == 1 and not errors):
            raise checks.CheckFailed("repro batch failed: " + "".join(job.lines["stderr"][-10:]))
        good = [r for r in records if "error" not in r]
        checks.check_batch(good, {k: v for k, v in expected.items() if k not in {r["source"] for r in errors}})
        by_source = {r["source"]: r for r in good}
        oracle.check([(by_source[k], expected[k].table) for k in sample if k in by_source], "batch")
        return job, by_source

    if args.trace:
        job, by_source = one(trace=True)
        done = len(by_source)
        return _traced(work, job, done, tables_per_s=done / job.wall_s), attempted, failed
    done_total, wall_total = 0, 0.0
    while budget.more():
        job, by_source = one(trace=False)
        budget.measured += job.wall_s
        done_total += len(by_source)
        wall_total += job.wall_s
        setup.append(job.setup_s)
        call_ms.append(job.wall_s * 1e3)
        rss.append(job.peak_rss_mb)
    while len(setup) < SETUP_SAMPLES:
        setup.append(_probe_setup(job.proc.args, ready))
    # Every call's labels matched the oracle sample; score the last one.
    accuracy = checks.Accuracy()
    for source, record in by_source.items():
        accuracy.add(expected[source].annotation, record["row_labels"], record["col_labels"])
    return _e2e(done_total / wall_total, setup, call_ms, rss, accuracy), attempted, failed


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _launch_server(store: Path, argv_prefix: list[str], extra: list[str]) -> tuple[Program, int]:
    port = _free_port()
    server = Program([*argv_prefix, "serve", "--model", str(store), "--port", str(port), *extra])
    while True:
        if server.proc.poll() is not None:
            raise checks.CheckFailed("repro serve exited: " + "".join(server.lines["stderr"][-10:]))
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            conn.request("GET", "/healthz?ready=1")
            response = conn.getresponse()
            response.read()
            conn.close()
            if response.status == 200:
                server.ready_at = time.perf_counter()
                return server, port
        except OSError:
            pass
        if time.perf_counter() - server.start > 60:
            server.stop()
            raise checks.CheckFailed("repro serve never became ready")
        time.sleep(0.002)


def _closed_loop(port: int, bodies: list[bytes]) -> tuple[list, float]:
    """Send every body over AFFINITY keep-alive connections, each
    sending its next request only after the previous reply."""
    results: list = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                start = time.perf_counter()
                conn.request("POST", "/classify", body=bodies[i], headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = response.read()
                elapsed = time.perf_counter() - start
                results[i] = (response.status, payload, elapsed, response.getheader("X-Trace-Id"))
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(AFFINITY)]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - begin


def run_serve(args, work: Path, cache: Path) -> tuple[dict, int, int]:
    store, train_hashes = ensure_store(cache)
    oracle = Oracle(store)
    accuracy = checks.Accuracy()
    setup, latencies, rss = [], [], []
    attempted = failed = 0
    load_s = 0.0
    budget = Budget(args.seconds)

    def one_round(index: int, trace: bool) -> tuple[Program, list]:
        nonlocal attempted, failed, load_s
        order, bodies = inputs.serve_round(args.seed, index)
        _disjoint([e.table for e in order], train_hashes)
        server, port = _launch_server(
            store, _repro(work, trace), ["--trace-out", str(work / "spans.jsonl")] if trace else [],
        )
        try:
            results, elapsed = _closed_loop(port, bodies)
        finally:
            server.stop()
        load_s += elapsed
        attempted += len(bodies)
        first: dict[int, dict] = {}
        outcomes = []
        for expected, (status, payload, seconds, trace_id) in zip(order, results):
            if status != 200:
                failed += 1
                continue
            record = json.loads(payload)
            checks.check_record(record, expected.table.shape, f"request for {expected.key}")
            original = first.setdefault(id(expected), record)
            if original is not record:
                if (original["row_labels"], original["col_labels"]) != (record["row_labels"], record["col_labels"]):
                    raise checks.CheckFailed(f"re-send of {expected.key} got other labels")
            else:
                accuracy.add(expected.annotation, record["row_labels"], record["col_labels"])
            outcomes.append((record, expected, seconds, trace_id))
        unique = [(r, e.table) for r, e, _s, _t in outcomes if first.get(id(e)) is r]
        oracle.check(_sample(unique, args.seed + index), "serve")
        latencies.extend(s * 1e3 for _r, _e, s, _t in outcomes)
        return server, outcomes

    if args.trace:
        server, outcomes = one_round(0, trace=True)
        spans = layers.read_spans(work / "spans.jsonl")
        durations = {s["trace_id"]: s["end"] - s["start"] for s in spans if s["name"] == "http.request"}
        outside = [(sec - durations[t]) * 1e3 for _r, _e, sec, t in outcomes if t in durations]
        return _traced(work, server, len(outcomes), tables_per_s=len(outcomes) / load_s,
                       outside_ms=outside, spans=spans), attempted, failed
    index = 0
    while budget.more(extra=len(latencies) < P99_MIN_REQUESTS):
        before = load_s
        server, _outcomes = one_round(index, trace=False)
        budget.measured += load_s - before
        setup.append(server.setup_s)
        rss.append(server.peak_rss_mb)
        index += 1
    while len(setup) < SETUP_SAMPLES:
        server, _port = _launch_server(store, _repro(work, False), [])
        setup.append(server.setup_s)
        server.stop()
    done = attempted - failed
    return _e2e(done / load_s, setup, latencies, rss, accuracy), attempted, failed


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _traced(work: Path, job: Program, units: int, *, tables_per_s: float,
            outside_ms: list[float] | None = None, spans: list[dict] | None = None) -> dict:
    if spans is None:
        spans = layers.read_spans(work / "spans.jsonl")
    hooks = json.loads((work / "hooks.json").read_text())
    looked_up = sum(s.get("attributes", {}).get("unique", 0) for s in spans if s["name"] == "lookup")
    oov = hooks["counters"].get("embeddings.oov_tokens", 0)
    # The traced figure against the untraced median is the tracing
    # overhead; the OOV share is OOV tokens over distinct tokens looked up.
    print(json.dumps({"traced": {
        "tables_per_s": tables_per_s, "spans": len(spans),
        "oov_share": oov / looked_up if looked_up else 0.0,
    }}))
    return layers.per_layer(spans, hooks, units=units, cpu_seconds=job.cpu_s, outside_ms=outside_ms)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy as np

    config = getattr(np.__config__, "CONFIG", {}) or {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": AFFINITY,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": commit,
        "src_sha256": _src_digest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    inputs.ensure_src_on_path()

    build = ROOT / ".bench_build" / "perfbench"
    cache = build / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    work = build / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    correct = True
    try:
        if args.workload == "train":
            metrics, attempted, failed = run_train(args, work)
        elif args.workload == "serve-http":
            metrics, attempted, failed = run_serve(args, work, cache)
        else:
            procs = AFFINITY if args.workload == "batch-procs" else None
            metrics, attempted, failed = run_batch(args, work, cache, procs)
    except Exception:  # noqa: BLE001 - any fault is reported as an incorrect run
        traceback.print_exc()
        # The aborted run counts as one operation, and it failed.
        correct, metrics, attempted, failed = False, {}, 1, 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"env": environment()}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
