"""Streaming ingestion plane: sources → backpressured chunks → labels.

Every connector — files, JSONL, xlsx workbooks, DB-API cursors, stdin —
yields :class:`SourceItem`s through one protocol; thread mode parses
and classifies chunk by chunk on one thread, while under ``--procs``
parse threads feed the worker processes through a bounded
:class:`ChunkQueue`; and windowed classification keeps tables larger
than memory classifiable from a bounded row/column window.  See
``docs/CONNECTORS.md`` for the protocol, backpressure model, windowed
semantics, and sink contract.

The package imports none of its modules itself; import each name from
the module that defines it.
"""
