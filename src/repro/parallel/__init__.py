"""repro.parallel — multiprocess scale-out for classification.

Python threads share one GIL, so a threaded ``repro batch`` or
``repro serve`` overlaps I/O but serializes the classification math.
This package moves that compute across *processes*:

* :class:`~repro.parallel.pool.ShardedPool` — a spawn-based worker pool
  whose initializer loads the model(s) once per process (memory-mapped
  for directory stores, so every worker shares one page-cached copy of
  the matrices).  Drives ``repro batch --procs`` and ``repro serve
  --procs``.
* :mod:`~repro.parallel.sharding` — the contiguous, order-preserving
  sharding the fuzzer's pooled campaigns rely on.
* :mod:`~repro.parallel.traces` — merges per-worker span files into one
  timeline (worker pid becomes the Chrome-trace ``tid``).

See ``docs/SCALING.md`` for when to reach for processes vs threads.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.parallel.pool import ShardedPool, WorkerPoolError, cpu_worker_default

__all__ = ["ShardedPool", "WorkerPoolError", "cpu_worker_default"]

# Resolved on first access: a worker importing ``repro.parallel._worker``
# does not load the pool machinery.
__getattr__ = lazy_exports(__name__, {
    "repro.parallel.pool": ("ShardedPool", "WorkerPoolError", "cpu_worker_default"),
})
