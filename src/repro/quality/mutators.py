"""Seeded adversarial table mutators (the ``repro fuzz`` registry).

Every mutator is a deterministic function of ``(table, rng)`` — the
fuzzer derives one :class:`numpy.random.Generator` per case from
``SeedSequence((campaign_seed, case_index))``, so a campaign is fully
reproducible from its seed and budget.

Two kinds of mutant come out:

* **grid** mutants carry a ready :class:`~repro.tables.model.Table`
  (the mutation happened on the cell grid itself);
* **text** mutants carry serialized table *text* plus a suffix, and the
  fuzzer pushes them through
  :func:`repro.serve.bulk.table_from_text` first — these exercise the
  ingestion parsers (CSV/JSON/markdown/HTML), where mixed encodings and
  merged-cell markup historically crash.

Each mutator also declares its **relation** to the unmutated table:

* ``"equal"`` — the mutation is a faithful re-encoding of the same
  grid (round trips through a serializer).  Parsing must succeed and
  the classifier must emit the *same labels* as on the original; any
  difference is a label **flip**, i.e. an ingestion bug.
* ``"robust"`` — the grid genuinely changed.  No label claim is made;
  the pipeline must merely not crash, and the fused plane must still
  agree with the level-by-level reference on the mutant.

A mutator may return ``None`` when it does not apply to the given
table (e.g. shuffling metadata rows of a one-row table); the fuzzer
records the case as ``skip``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.tables.csvio import table_to_csv
from repro.tables.jsonio import table_to_json
from repro.tables.labels import TableAnnotation
from repro.tables.markdown import table_to_markdown
from repro.tables.model import Table


@dataclass(frozen=True)
class Mutant:
    """One mutation outcome: a grid, or serialized text to parse."""

    table: Table | None = None
    text: str | None = None
    suffix: str = ""
    note: str = ""

    @property
    def kind(self) -> str:
        return "text" if self.text is not None else "grid"


MutatorFn = Callable[[Table, np.random.Generator], "Mutant | None"]


@dataclass(frozen=True)
class MutatorSpec:
    """A registered mutator plus its contract declarations."""

    name: str
    kind: str  # "grid" | "text"
    relation: str  # "equal" | "robust"
    description: str
    fn: MutatorFn


_REGISTRY: dict[str, MutatorSpec] = {}


def register_mutator(
    name: str, *, kind: str, relation: str, description: str
) -> Callable[[MutatorFn], MutatorFn]:
    """Class-level decorator registering one mutator under ``name``."""
    if kind not in ("grid", "text"):
        raise ValueError(f"mutator kind must be grid or text, got {kind!r}")
    if relation not in ("equal", "robust"):
        raise ValueError(
            f"mutator relation must be equal or robust, got {relation!r}"
        )

    def decorate(fn: MutatorFn) -> MutatorFn:
        if name in _REGISTRY:
            raise ValueError(f"mutator {name!r} is already registered")
        _REGISTRY[name] = MutatorSpec(
            name=name, kind=kind, relation=relation,
            description=description, fn=fn,
        )
        return fn

    return decorate


def mutator_names() -> list[str]:
    """All registered mutator names, sorted (the campaign order)."""
    return sorted(_REGISTRY)


def get_mutators(names: Iterable[str] | None = None) -> list[MutatorSpec]:
    """Resolve a name list (``None`` = every registered mutator)."""
    if names is None:
        return [_REGISTRY[name] for name in mutator_names()]
    specs = []
    for name in names:
        if name not in _REGISTRY:
            raise ValueError(
                f"unknown mutator {name!r}; known: {', '.join(mutator_names())}"
            )
        specs.append(_REGISTRY[name])
    return specs


def apply_mutator(
    spec: MutatorSpec, table: Table, rng: np.random.Generator
) -> Mutant | None:
    """Apply one mutator; ``None`` means it does not apply to ``table``."""
    return spec.fn(table, rng)


# ---------------------------------------------------------------------------
# grid mutators — the mutation happens on the cell grid
# ---------------------------------------------------------------------------

def _grid(table: Table) -> list[list[str]]:
    return [list(row) for row in table.rows]


@register_mutator(
    "shuffle-metadata", kind="grid", relation="robust",
    description="permute the top (metadata-frontier) rows",
)
def shuffle_metadata(table: Table, rng: np.random.Generator) -> Mutant | None:
    if table.n_rows < 3:
        return None
    k = int(rng.integers(2, min(4, table.n_rows) + 1))
    order = rng.permutation(k)
    rows = _grid(table)
    head = [rows[i] for i in order]
    return Mutant(
        table=Table(head + rows[k:], name=table.name),
        note=f"shuffled first {k} rows",
    )


@register_mutator(
    "duplicate-metadata", kind="grid", relation="robust",
    description="duplicate one of the top rows in place",
)
def duplicate_metadata(table: Table, rng: np.random.Generator) -> Mutant | None:
    if table.n_rows < 2:
        return None
    i = int(rng.integers(0, min(3, table.n_rows)))
    rows = _grid(table)
    rows.insert(i, list(rows[i]))
    return Mutant(table=Table(rows, name=table.name), note=f"duplicated row {i}")


@register_mutator(
    "raggedize", kind="grid", relation="robust",
    description="chop trailing cells off random rows (ragged grid)",
)
def raggedize(table: Table, rng: np.random.Generator) -> Mutant | None:
    if table.n_rows < 1 or table.n_cols < 2:
        return None
    rows = _grid(table)
    victims = rng.integers(0, 2, size=len(rows))
    for i, hit in enumerate(victims):
        if hit:
            keep = int(rng.integers(1, table.n_cols))
            rows[i] = rows[i][:keep]
    return Mutant(table=Table(rows, name=table.name), note="ragged rows")


_NUMERIC_JUNK = (
    "1e308", "-1e308", "NaN", "-0", "0x1F", "1/0",
    "999999999999999999999999", "3,14", "2.5e-324", "∞", "-∞", "1E+99%",
)


@register_mutator(
    "numeric-junk", kind="grid", relation="robust",
    description="overwrite random cells with pathological numerics",
)
def numeric_junk(table: Table, rng: np.random.Generator) -> Mutant | None:
    if not table:
        return None
    rows = _grid(table)
    n_hits = int(rng.integers(1, max(2, table.n_rows * table.n_cols // 3)))
    for _ in range(n_hits):
        i = int(rng.integers(0, table.n_rows))
        j = int(rng.integers(0, table.n_cols))
        rows[i][j] = _NUMERIC_JUNK[int(rng.integers(0, len(_NUMERIC_JUNK)))]
    return Mutant(table=Table(rows, name=table.name), note=f"{n_hits} junk cells")


_UNICODE_JUNK = (
    "​", "‏", "‮", "﻿", "́́́",
    "🙂🙃", "ﬁﬂ", "Ａｌｌ", "𝔘𝔫𝔦", " ", "ᅟᅠ",
)


@register_mutator(
    "unicode-junk", kind="grid", relation="robust",
    description="splice zero-width/bidi/combining junk into random cells",
)
def unicode_junk(table: Table, rng: np.random.Generator) -> Mutant | None:
    if not table:
        return None
    rows = _grid(table)
    n_hits = int(rng.integers(1, max(2, table.n_rows * table.n_cols // 3)))
    for _ in range(n_hits):
        i = int(rng.integers(0, table.n_rows))
        j = int(rng.integers(0, table.n_cols))
        junk = _UNICODE_JUNK[int(rng.integers(0, len(_UNICODE_JUNK)))]
        cell = rows[i][j]
        cut = int(rng.integers(0, len(cell) + 1))
        rows[i][j] = cell[:cut] + junk + cell[cut:]
    return Mutant(table=Table(rows, name=table.name), note=f"{n_hits} junk splices")


@register_mutator(
    "mojibake", kind="grid", relation="robust",
    description="re-encode random cells utf-8 -> latin-1 (mixed encodings)",
)
def mojibake(table: Table, rng: np.random.Generator) -> Mutant | None:
    if not table:
        return None
    rows = _grid(table)
    changed = 0
    for i in range(table.n_rows):
        for j in range(table.n_cols):
            if rng.random() < 0.3 and rows[i][j]:
                rows[i][j] = rows[i][j].encode("utf-8").decode(
                    "latin-1", errors="replace"
                )
                changed += 1
    if not changed:
        return None
    return Mutant(table=Table(rows, name=table.name), note=f"{changed} cells")


@register_mutator(
    "transpose", kind="grid", relation="robust",
    description="swap rows and columns (HMD becomes VMD territory)",
)
def transpose(table: Table, rng: np.random.Generator) -> Mutant | None:
    if not table:
        return None
    return Mutant(table=table.transpose(), note="transposed")


@register_mutator(
    "truncate", kind="grid", relation="robust",
    description="keep only a leading block of rows/columns",
)
def truncate(table: Table, rng: np.random.Generator) -> Mutant | None:
    if table.n_rows < 2 and table.n_cols < 2:
        return None
    keep_rows = int(rng.integers(1, table.n_rows + 1))
    keep_cols = int(rng.integers(1, table.n_cols + 1))
    rows = [list(row[:keep_cols]) for row in table.rows[:keep_rows]]
    return Mutant(
        table=Table(rows, name=table.name),
        note=f"kept {keep_rows}x{keep_cols}",
    )


@register_mutator(
    "blank-cells", kind="grid", relation="robust",
    description="blank random cells (hierarchical-continuation stress)",
)
def blank_cells(table: Table, rng: np.random.Generator) -> Mutant | None:
    if not table:
        return None
    rows = _grid(table)
    n_hits = int(rng.integers(1, max(2, table.n_rows * table.n_cols // 2)))
    for _ in range(n_hits):
        i = int(rng.integers(0, table.n_rows))
        j = int(rng.integers(0, table.n_cols))
        rows[i][j] = ""
    return Mutant(table=Table(rows, name=table.name), note=f"{n_hits} blanked")


# ---------------------------------------------------------------------------
# text mutators — serialized table text pushed through the parsers
# ---------------------------------------------------------------------------

_SPAN_JUNK = ("2", "3", "0", "-1", "", "NaN", "1e9", "999999", "2.5")


@register_mutator(
    "html-spans", kind="text", relation="robust",
    description="HTML with random colspan/rowspan (incl. garbage values)",
)
def html_spans(table: Table, rng: np.random.Generator) -> Mutant | None:
    if not table:
        return None
    lines = ["<table><tbody>"]
    for row in table.rows:
        cells = []
        j = 0
        while j < len(row):
            import html as _html

            text = _html.escape(row[j])
            if rng.random() < 0.25:
                span = _SPAN_JUNK[int(rng.integers(0, len(_SPAN_JUNK)))]
                attr = "colspan" if rng.random() < 0.7 else "rowspan"
                cells.append(f'<td {attr}="{span}">{text}</td>')
                # a merged cell swallows its right neighbour
                j += 2 if attr == "colspan" and rng.random() < 0.5 else 1
            else:
                cells.append(f"<td>{text}</td>")
                j += 1
        lines.append("<tr>" + "".join(cells) + "</tr>")
    lines.append("</tbody></table>")
    return Mutant(text="".join(lines), suffix=".html", note="span markup")


@register_mutator(
    "html-junk", kind="text", relation="robust",
    description="HTML with unclosed/stray tags around the same grid",
)
def html_junk(table: Table, rng: np.random.Generator) -> Mutant | None:
    if not table:
        return None
    import html as _html

    parts = ["<table>"]
    for row in table.rows:
        parts.append("<tr>")  # sometimes left unclosed below
        for cell in row:
            text = _html.escape(cell)
            roll = rng.random()
            if roll < 0.15:
                parts.append(f"<td><b>{text}</td>")  # unclosed <b>
            elif roll < 0.3:
                parts.append(f"<td>{text}")  # unclosed <td>
            elif roll < 0.4:
                parts.append(f"<th>{text}</th></td>")  # stray close
            else:
                parts.append(f"<td>{text}</td>")
        if rng.random() < 0.7:
            parts.append("</tr>")
    parts.append("</table>")
    return Mutant(text="".join(parts), suffix=".html", note="junk markup")


@register_mutator(
    "csv-ragged", kind="text", relation="robust",
    description="CSV with rows cut short mid-line (ragged ingestion)",
)
def csv_ragged(table: Table, rng: np.random.Generator) -> Mutant | None:
    if not table or table.n_cols < 2:
        return None
    lines = table_to_csv(table).split("\n")
    out = []
    for line in lines:
        if rng.random() < 0.4 and "," in line:
            cut = int(rng.integers(1, line.count(",") + 1))
            line = ",".join(line.split(",")[:cut])
        out.append(line)
    return Mutant(text="\n".join(out), suffix=".csv", note="ragged csv")


@register_mutator(
    "byte-flips", kind="text", relation="robust",
    description="CSV bytes corrupted then replace-decoded (broken encoding)",
)
def byte_flips(table: Table, rng: np.random.Generator) -> Mutant | None:
    if not table:
        return None
    raw = bytearray(table_to_csv(table).encode("utf-8"))
    if not raw:
        return None
    n_flips = int(rng.integers(1, max(2, len(raw) // 16)))
    for _ in range(n_flips):
        raw[int(rng.integers(0, len(raw)))] = int(rng.integers(0, 256))
    # mirrors table_from_path's read_text(errors="replace") contract
    return Mutant(
        text=raw.decode("utf-8", errors="replace"),
        suffix=".csv",
        note=f"{n_flips} byte flips",
    )


# ---------------------------------------------------------------------------
# round-trip mutators — same grid, different encoding; labels must hold
# ---------------------------------------------------------------------------

@register_mutator(
    "csv-roundtrip", kind="text", relation="equal",
    description="serialize to CSV and re-parse (labels must not flip)",
)
def csv_roundtrip(table: Table, rng: np.random.Generator) -> Mutant | None:
    if not table:
        return None
    return Mutant(text=table_to_csv(table), suffix=".csv", note="csv round trip")


@register_mutator(
    "json-roundtrip", kind="text", relation="equal",
    description="serialize to JSON and re-parse (labels must not flip)",
)
def json_roundtrip(table: Table, rng: np.random.Generator) -> Mutant | None:
    if not table:
        return None
    return Mutant(text=table_to_json(table), suffix=".json", note="json round trip")


_MD_SEPARATOR_RE = re.compile(r"^:?-{3,}:?$")


@register_mutator(
    "markdown-roundtrip", kind="text", relation="equal",
    description="serialize to a pipe table and re-parse (labels must not flip)",
)
def markdown_roundtrip(table: Table, rng: np.random.Generator) -> Mutant | None:
    if not table:
        return None
    # Markdown cannot represent a row whose non-empty cells all look
    # like separator dashes (the parser rightly drops it) or an
    # all-blank row (nothing distinguishes it from formatting), so the
    # round trip only claims equality away from those.
    for row in table.rows:
        non_empty = [c for c in row if c]
        if not non_empty:
            return None
        if all(_MD_SEPARATOR_RE.match(c.replace(" ", "")) for c in non_empty):
            return None
    return Mutant(
        text=table_to_markdown(table), suffix=".md", note="markdown round trip"
    )


@register_mutator(
    "html-roundtrip", kind="text", relation="equal",
    description="render to HTML (with colspan merges) and re-parse",
)
def html_roundtrip(table: Table, rng: np.random.Generator) -> Mutant | None:
    from repro.tables.html import render_html_table

    if not table:
        return None
    hmd_depth = int(rng.integers(0, min(2, table.n_rows) + 1))
    annotation = TableAnnotation.from_depths(
        table.n_rows, table.n_cols, hmd_depth=hmd_depth
    )
    markup = render_html_table(
        table, annotation, use_colspan=bool(rng.integers(0, 2))
    )
    return Mutant(text=markup, suffix=".html", note=f"hmd_depth={hmd_depth}")


def grid_of(mutant: Mutant, original: Table) -> Sequence[Sequence[str]]:
    """The mutant's cell grid (parsing text mutants), for invariants."""
    from repro.serve.bulk import table_from_text

    if mutant.table is not None:
        return mutant.table.rows
    return table_from_text(
        mutant.text or "", suffix=mutant.suffix, name=original.name
    ).rows
