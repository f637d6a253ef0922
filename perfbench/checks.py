"""Output checks and accuracy, computed apart from the program.

Every check works on the JSON records the program emits (``repro
batch`` lines, ``/classify`` response bodies) and on the generator's
ground truth; none of it calls into the program except the oracle
comparison, which classifies the generator's own table with
``load_pipeline(store).classify``.
"""

from __future__ import annotations

import re

_LABEL_RE = re.compile(r"^(HMD|VMD|CMD)([1-9][0-9]*)$|^DATA$")
MAX_HMD = 5
MAX_VMD = 3


class CheckFailed(AssertionError):
    """An output broke one of the benchmark's checks."""


def parse_label(text: str) -> tuple[str, int]:
    match = _LABEL_RE.match(text)
    if match is None:
        raise CheckFailed(f"unknown label {text!r}")
    return ("DATA", 0) if text == "DATA" else (match.group(1), int(match.group(2)))


def _prefix(labels: list[tuple[str, int]], kind: str, limit: int, where: str) -> int:
    """Length of the leading ``kind`` prefix, which must read 1..k."""
    depth = 0
    while depth < len(labels) and labels[depth][0] == kind:
        if labels[depth][1] != depth + 1:
            raise CheckFailed(f"{where}: {kind} prefix numbered {labels[depth][1]} at position {depth}")
        depth += 1
    if depth > limit:
        raise CheckFailed(f"{where}: {kind} depth {depth} exceeds {limit}")
    if any(k == kind for k, _ in labels[depth:]):
        raise CheckFailed(f"{where}: {kind} label after the leading prefix")
    return depth


def check_record(record: dict, shape: tuple[int, int], where: str) -> None:
    """Shape, label vocabulary and Algorithm 1's prefix structure."""
    if "error" in record:
        raise CheckFailed(f"{where}: error record {record['error']!r}")
    if (record.get("n_rows"), record.get("n_cols")) != shape:
        raise CheckFailed(f"{where}: shape {record.get('n_rows')}x{record.get('n_cols')} != generated {shape[0]}x{shape[1]}")
    rows = [parse_label(t) for t in record["row_labels"]]
    cols = [parse_label(t) for t in record["col_labels"]]
    if (len(rows), len(cols)) != shape:
        raise CheckFailed(f"{where}: {len(rows)} row / {len(cols)} col labels for a {shape[0]}x{shape[1]} table")
    if any(k not in ("HMD", "CMD", "DATA") for k, _ in rows):
        raise CheckFailed(f"{where}: row labels must be HMD/CMD/DATA")
    if any(k not in ("VMD", "DATA") for k, _ in cols):
        raise CheckFailed(f"{where}: column labels must be VMD/DATA")
    hmd = _prefix(rows, "HMD", MAX_HMD, where)
    vmd = _prefix(cols, "VMD", MAX_VMD, where)
    if (record.get("hmd_depth"), record.get("vmd_depth")) != (hmd, vmd):
        raise CheckFailed(f"{where}: depths {record.get('hmd_depth')}/{record.get('vmd_depth')} != label prefixes {hmd}/{vmd}")


def check_batch(records: list[dict], expected: dict[str, object]) -> None:
    """Exactly one well-formed record per input file, keyed by source."""
    seen: dict[str, dict] = {}
    for record in records:
        source = record.get("source")
        if source not in expected:
            raise CheckFailed(f"record for an unknown input {source!r}")
        if source in seen:
            raise CheckFailed(f"two records for {source}")
        seen[source] = record
    missing = len(expected) - len(seen)
    if missing:
        raise CheckFailed(f"{missing} input(s) produced no record")
    for source, record in seen.items():
        check_record(record, expected[source].table.shape, source)


def annotation_labels(annotation) -> tuple[list[str], list[str]]:
    return [str(l) for l in annotation.row_labels], [str(l) for l in annotation.col_labels]


def check_oracle(records: list[tuple[dict, object]], where: str) -> None:
    """Emitted labels equal ``load_pipeline(store).classify`` labels.

    ``records`` pairs each sampled record with the annotation the
    reloaded store gives the generator's table.
    """
    for record, annotation in records:
        rows, cols = annotation_labels(annotation)
        if record["row_labels"] != rows or record["col_labels"] != cols:
            raise CheckFailed(f"{where}: labels of {record.get('source') or record.get('name')} differ from load_pipeline(store).classify")


# Eq. 9 per metadata level, pooled over the levels of each metric.
ACCURACY_LEVELS = {
    "hmd1_acc": ("HMD", (1,)),
    "hmd_deep_acc": ("HMD", (2, 3, 4, 5)),
    "vmd1_acc": ("VMD", (1,)),
    "vmd_deep_acc": ("VMD", (2, 3)),
}


class Accuracy:
    """Pooled Eq. 9 confusion counts for the four accuracy metrics."""

    def __init__(self) -> None:
        self.correct = dict.fromkeys(ACCURACY_LEVELS, 0)
        self.total = dict.fromkeys(ACCURACY_LEVELS, 0)

    def add(self, truth, row_labels: list[str], col_labels: list[str]) -> None:
        """Score one table: ``truth`` is the generator's annotation."""
        true_rows, true_cols = annotation_labels(truth)
        for name, (kind, levels) in ACCURACY_LEVELS.items():
            true_axis, pred_axis = (true_rows, row_labels) if kind == "HMD" else (true_cols, col_labels)
            for level in levels:
                label = f"{kind}{level}"
                if label not in true_axis:
                    continue  # the table does not take part at this level
                for t, p in zip(true_axis, pred_axis):
                    self.correct[name] += (t == label) == (p == label)
                    self.total[name] += 1

    def metrics(self) -> dict[str, float]:
        return {name: self.correct[name] / self.total[name] for name in ACCURACY_LEVELS if self.total[name]}
