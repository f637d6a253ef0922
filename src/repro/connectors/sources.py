"""Source connectors: anything that yields tables through one protocol.

A :class:`TableSource` turns some external thing — files on disk, a
JSONL stream, an xlsx workbook, a DB-API cursor, stdin — into an
iterator of :class:`~repro.connectors.chunks.SourceItem`, parsing
lazily so memory stays bounded by one chunk (and, under ``--procs``,
parse overlaps with classification) and a bad input costs one error
item, never the run.

``build_sources`` is the spec front door used by ``repro batch``::

    results.csv  tables/  'data/*.html'    # files, dirs, globs
    book.xlsx            xlsx:export      # workbooks (stdlib zip+xml)
    records.jsonl        jsonl:dump       # one table per line
    sql:corpus.db#SELECT ...              # DB-API batch cursor
    -                                     # stdin, content-sniffed

Sources that can stream *rows* (CSV files, DB cursors, stdin CSV)
additionally expose :meth:`TableSource.row_streams`, which the
windowed-classification path consumes to keep peak memory bounded by
the window, not the table.
"""

from __future__ import annotations

import io
import sys
from glob import glob
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro import obs
from repro.connectors.chunks import SourceItem
from repro.connectors.sniff import sniff_format, suffix_for
from repro.connectors.window import CsvRowStream, RowStream, TextCsvRowStream
from repro.tables.model import Table

#: Suffixes the streaming plane picks up when scanning a directory —
#: the classic single-table formats plus the multi-table containers
#: only the connector plane knows how to open.
STREAM_SUFFIXES = (
    ".csv", ".json", ".md", ".markdown", ".html", ".htm",
    ".jsonl", ".ndjson", ".xlsx",
)


class TableSource:
    """Base connector: a named, lazily-parsed stream of table items."""

    #: Human-readable provenance for logs and error records.
    spec: str = ""

    def items(self) -> Iterator[SourceItem]:
        """Yield every table (or isolated error) of this source."""
        raise NotImplementedError

    def split(self, n: int) -> "list[TableSource]":
        """Split into up to ``n`` independently-iterable sub-sources.

        Sub-sources must preserve item order under an ``(split position,
        item position)`` sort.  The default is no parallelism: one
        sub-source, this one.
        """
        del n
        return [self]

    def row_streams(self) -> "Iterator[RowStream] | None":
        """Row-level streams for windowed classification, when the
        format supports it (``None`` = materialize via :meth:`items`)."""
        return None


def _read_text(path: Path) -> str:
    # Mixed-encoding corpora: replacing undecodable bytes costs one
    # mojibake cell, a strict decode costs the whole file.
    with obs.span("ingest.read", source=str(path)):
        return path.read_text(encoding="utf-8", errors="replace")


def _parse_one(path: Path) -> Iterator[SourceItem]:
    """Parse one file into items, dispatching multi-table containers."""
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        yield from JsonlSource(path).items()
        return
    if suffix == ".xlsx":
        from repro.connectors.xlsx import XlsxSource

        yield from XlsxSource(path).items()
        return
    from repro.serve.bulk import table_from_text

    source = str(path)
    try:
        # Same per-file "table" root span as the legacy bulk path, so
        # trace timelines keep one root per input across both planes.
        with obs.span("table", source=source) as table_span:
            text = _read_text(path)
            with obs.span("ingest.parse", source=source):
                table = table_from_text(text, suffix=suffix, name=path.stem)
            table_span.set(table=table.name)
    except Exception as exc:  # noqa: BLE001 - per-source isolation
        yield SourceItem(source=source, error=str(exc))
        return
    yield SourceItem(source=source, table=table)


class FilesSource(TableSource):
    """Table files on disk, parsed lazily in path order.

    The one splittable source: contiguous path slices parse on separate
    threads while ``(slice, position)`` keeps the global order intact.
    Multi-table containers (``.jsonl``, ``.xlsx``) inline their items at
    the container's position.
    """

    def __init__(self, paths: Sequence[str | Path], *, spec: str = "") -> None:
        self.paths = [Path(p) for p in paths]
        self.spec = spec or f"{len(self.paths)} files"

    def items(self) -> Iterator[SourceItem]:
        for path in self.paths:
            yield from _parse_one(path)

    def split(self, n: int) -> list[TableSource]:
        n = max(1, min(n, len(self.paths)))
        if n == 1:
            return [self]
        size = -(-len(self.paths) // n)
        return [
            FilesSource(self.paths[i : i + size], spec=self.spec)
            for i in range(0, len(self.paths), size)
        ]

    def row_streams(self) -> Iterator[RowStream] | None:
        # Windowed mode only helps formats that parse incrementally;
        # a run mixing CSV with DOM formats would silently change the
        # non-CSV results, so only an all-CSV source streams rows.
        if not self.paths or any(
            p.suffix.lower() != ".csv" for p in self.paths
        ):
            return None
        return (CsvRowStream(path) for path in self.paths)


class JsonlSource(TableSource):
    """One table per line: CORD-19-style objects or bare row arrays."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.spec = str(path)

    def items(self) -> Iterator[SourceItem]:
        try:
            handle = self.path.open(encoding="utf-8", errors="replace")
        except OSError as exc:
            yield SourceItem(source=self.spec, error=str(exc))
            return
        with handle:
            yield from _jsonl_items(handle, self.spec)


def _jsonl_items(lines: Iterable[str], spec: str) -> Iterator[SourceItem]:
    import json

    from repro.tables.jsonio import table_from_json

    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        source = f"{spec}#L{i}"
        try:
            with obs.span("ingest.parse", source=source):
                if line.lstrip().startswith("["):
                    rows = json.loads(line)
                    if not isinstance(rows, list) or any(
                        not isinstance(r, (list, tuple)) for r in rows
                    ):
                        raise ValueError("expected an array of row arrays")
                    table = Table(rows, name=f"L{i}")
                else:
                    table = table_from_json(line)
                    if not table.name:
                        table = table.with_name(f"L{i}")
        except Exception as exc:  # noqa: BLE001 - per-line isolation
            yield SourceItem(source=source, error=str(exc))
            continue
        yield SourceItem(source=source, table=table)


class TextSource(TableSource):
    """In-memory text (stdin, tests), dispatched by content sniffing."""

    def __init__(self, text: str, *, name: str = "stdin") -> None:
        self.text = text
        self.name = name
        self.spec = name

    def items(self) -> Iterator[SourceItem]:
        from repro.serve.bulk import table_from_text

        format_name = sniff_format(self.text)
        if format_name == "jsonl":
            yield from _jsonl_items(self.text.splitlines(), self.spec)
            return
        try:
            with obs.span("ingest.parse", source=self.spec):
                table = table_from_text(
                    self.text, suffix=suffix_for(format_name), name=self.name
                )
        except Exception as exc:  # noqa: BLE001 - per-source isolation
            yield SourceItem(source=self.spec, error=str(exc))
            return
        yield SourceItem(source=self.spec, table=table)

    def row_streams(self) -> Iterator[RowStream] | None:
        if sniff_format(self.text) != "csv":
            return None
        return iter(
            [TextCsvRowStream(io.StringIO(self.text), name=self.name)]
        )


class StdinSource(TextSource):
    """Stdin, read once at iteration time and content-sniffed."""

    def __init__(self, stream: io.TextIOBase | None = None) -> None:
        self._stream = stream
        self._text: str | None = None
        self.name = "stdin"
        self.spec = "stdin"

    @property
    def text(self) -> str:  # type: ignore[override]
        if self._text is None:
            stream = self._stream if self._stream is not None else sys.stdin
            with obs.span("ingest.read", source="stdin"):
                self._text = stream.read()
        return self._text


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def _dir_stream_files(path: Path) -> list[Path]:
    return [
        p for p in sorted(path.iterdir())
        if p.suffix.lower() in STREAM_SUFFIXES and p.is_file()
    ]


def expand_path_specs(specs: Sequence[str | Path]) -> list[Path]:
    """Files/dirs/globs -> ordered, resolved-path-deduped file list."""
    out: list[Path] = []
    for spec in specs:
        path = Path(spec)
        if path.is_dir():
            out.extend(_dir_stream_files(path))
        elif path.is_file():
            out.append(path)
        else:
            matches = [Path(p) for p in sorted(glob(str(spec)))]
            if not matches:
                raise FileNotFoundError(f"no tables match {spec!r}")
            for match in matches:
                if match.is_dir():
                    out.extend(_dir_stream_files(match))
                elif match.is_file():
                    out.append(match)
    seen: set[Path] = set()
    unique: list[Path] = []
    for p in out:
        key = _resolve_key(p)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


def _resolve_key(path: Path) -> Path:
    try:
        return path.resolve()
    except OSError:  # unresolvable (racing unlink): fall back to literal
        return path


def build_sources(
    specs: Sequence[str],
    *,
    stdin_factory: Callable[[], TableSource] | None = None,
) -> list[TableSource]:
    """Turn ``repro batch`` input specs into an ordered source list.

    Plain paths/dirs/globs coalesce into one splittable
    :class:`FilesSource` per contiguous run (so file parallelism
    survives interleaved special specs); ``sql:``/``jsonl:``/``xlsx:``
    prefixes and ``-`` produce their dedicated connectors in place.
    """
    sources: list[TableSource] = []
    pending_paths: list[str] = []

    def flush_paths() -> None:
        if pending_paths:
            paths = expand_path_specs(pending_paths)
            if paths:
                sources.append(
                    FilesSource(paths, spec=", ".join(pending_paths))
                )
            pending_paths.clear()

    for spec in specs:
        if spec == "-":
            flush_paths()
            sources.append(
                stdin_factory() if stdin_factory is not None else StdinSource()
            )
        elif spec.startswith("sql:"):
            flush_paths()
            from repro.connectors.dbapi import DbSource

            sources.append(DbSource.from_spec(spec))
        elif spec.startswith("jsonl:"):
            flush_paths()
            sources.append(JsonlSource(spec[len("jsonl:"):]))
        elif spec.startswith("xlsx:"):
            flush_paths()
            from repro.connectors.xlsx import XlsxSource

            sources.append(XlsxSource(spec[len("xlsx:"):]))
        else:
            pending_paths.append(spec)
    flush_paths()
    return sources
