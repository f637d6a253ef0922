"""Show that each output check fails on a deliberately corrupted output.

    python3 perfbench/selftest.py

Builds records from generated tables and their ground truth (which
pass every check), then corrupts them one way at a time: a dropped
record, a duplicated record, a wrong shape, a mis-numbered HMD prefix,
a depth that disagrees with the labels, an HMD label after the prefix,
a row label on the wrong axis, and a flipped label that keeps the
structure valid, which only the oracle comparison can catch.  Exits 1
if any corruption passes or the clean records fail.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402


def _records(items) -> dict[str, dict]:
    out = {}
    for item in items:
        rows, cols = checks.annotation_labels(item.annotation)
        out[item.table.name] = {
            "source": item.table.name, "name": item.table.name,
            "n_rows": item.table.n_rows, "n_cols": item.table.n_cols,
            "hmd_depth": item.annotation.hmd_depth, "vmd_depth": item.annotation.vmd_depth,
            "row_labels": rows, "col_labels": cols,
        }
    return out


def main() -> int:
    inputs.ensure_src_on_path()
    items = inputs.generate("ckg", 40, 0, 0, "selftest")
    expected = {item.table.name: inputs.Expected(item.table.name, item.table, item.annotation) for item in items}
    clean = _records(items)
    deep = next(name for name, r in clean.items() if r["hmd_depth"] >= 2)
    flat = next(name for name, r in clean.items() if "DATA" in r["row_labels"][1:])

    def run(records: dict[str, dict]) -> None:
        checks.check_batch(list(records.values()), expected)
        checks.check_oracle([(r, expected[name].annotation) for name, r in records.items()], "selftest")

    def corrupt(name: str, edit) -> dict[str, dict]:
        records = copy.deepcopy(clean)
        edit(records, records[name])
        return records

    def flip_data_row(records, r):
        i = r["row_labels"].index("DATA", 1)
        r["row_labels"][i] = "CMD1"

    cases = {
        "dropped record": corrupt(deep, lambda rs, r: rs.pop(r["name"])),
        "duplicated record": corrupt(deep, lambda rs, r: rs.__setitem__("copy", dict(r))),
        "wrong shape": corrupt(deep, lambda rs, r: r.__setitem__("n_rows", r["n_rows"] + 1)),
        "mis-numbered HMD prefix": corrupt(deep, lambda rs, r: r["row_labels"].__setitem__(1, "HMD3")),
        "depth disagrees with labels": corrupt(deep, lambda rs, r: r.__setitem__("hmd_depth", r["hmd_depth"] - 1)),
        "HMD after the prefix": corrupt(flat, lambda rs, r: r["row_labels"].__setitem__(-1, "HMD1")),
        "VMD on the row axis": corrupt(flat, lambda rs, r: r["row_labels"].__setitem__(-1, "VMD1")),
        "flipped label (oracle only)": corrupt(flat, flip_data_row),
    }
    failures = 0
    try:
        run(clean)
        print("clean records: pass")
    except checks.CheckFailed as exc:
        print(f"clean records: FAILED ({exc})")
        failures += 1
    for name, records in cases.items():
        try:
            run(records)
        except checks.CheckFailed as exc:
            print(f"{name}: caught ({exc})")
        else:
            print(f"{name}: NOT CAUGHT")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
