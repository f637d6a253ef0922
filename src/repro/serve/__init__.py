"""The serving layer: a long-lived classification service.

The paper's pitch is *scalable* classification over large heterogeneous
corpora, but ``repro fit`` / ``repro classify`` reload the model and
re-embed every term on each invocation.  This package keeps fitted
pipelines warm and amortizes work across requests:

* :mod:`repro.serve.registry` — loads ``.npz`` pipelines once and keeps
  them warm, keyed by name.
* :mod:`repro.serve.cache` — a thread-safe LRU result cache keyed by
  :meth:`~repro.tables.model.Table.content_hash`, so repeated tables
  skip Algorithm 1 entirely.
* :mod:`repro.serve.metrics` — request counters, cache hit ratio, and
  latency quantiles rendered in Prometheus text format.
* :mod:`repro.serve.httpd` — the stdlib HTTP front-end
  (``POST /classify``, ``POST /classify/batch``, ``GET /healthz``,
  ``GET /metrics``) with graceful drain on shutdown; a request
  classifies on its own handler thread, or on a
  :class:`~repro.parallel.pool.ShardedPool` with ``--procs``.
* :mod:`repro.serve.bulk` — the offline bulk path (``repro batch``,
  on the streaming plane of :mod:`repro.connectors`) and the record
  and result-cache helpers every classify path shares.

The package imports none of these modules itself: ``repro batch``
reaches :mod:`~repro.serve.bulk` without loading the HTTP front-end.
"""
