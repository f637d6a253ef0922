"""Banking minimized fuzz reproducers as regression fixtures.

A banked fixture is one JSON file under ``tests/quality/fixtures/``
holding a minimized reproducer plus enough campaign metadata to know
where it came from.  Filenames are content-addressed (verdict, mutator,
and a digest of the reproducer payload), so re-banking the same finding
is a no-op and two different findings never collide.

The replay side (:func:`replay_fixture`) is what the regression test
suite runs: a fixture "replays clean" when the bug it captured no
longer reproduces — parse crashes now parse or reject with
``ValueError``, plane divergences now agree, round-trip flips now
round-trip.  ``tests/quality/test_fixtures.py`` asserts every banked
fixture replays clean, which is exactly the regression guarantee.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.tables.model import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.quality.fuzzer import FuzzCase, FuzzHarness

#: Where ``repro fuzz --bank`` deposits fixtures by default.
DEFAULT_BANK = Path("tests/quality/fixtures")


def _digest(payload: Mapping) -> str:
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def fixture_path(case: "FuzzCase", bank_dir: str | Path = DEFAULT_BANK) -> Path:
    """The content-addressed file a case would bank to."""
    if case.repro is None:
        raise ValueError("case has no reproducer to bank")
    name = f"{case.verdict}-{case.mutator}-{_digest(case.repro)}.json"
    return Path(bank_dir) / name


def bank_case(
    case: "FuzzCase",
    bank_dir: str | Path = DEFAULT_BANK,
    *,
    campaign_seed: int | None = None,
) -> Path | None:
    """Write one failing case's minimized reproducer; dedup by content.

    Returns the fixture path, or ``None`` when the file already existed
    (the same finding was banked by an earlier campaign).
    """
    path = fixture_path(case, bank_dir)
    if path.exists():
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    fixture = {
        "verdict": case.verdict,
        "mutator": case.mutator,
        "detail": case.detail,
        "case_index": case.index,
        "campaign_seed": campaign_seed,
        "repro": case.repro,
    }
    path.write_text(
        json.dumps(fixture, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return path


def load_fixtures(bank_dir: str | Path = DEFAULT_BANK) -> list[dict]:
    """Every banked fixture, sorted by filename; each carries ``path``."""
    directory = Path(bank_dir)
    if not directory.is_dir():
        return []
    fixtures = []
    for path in sorted(directory.glob("*.json")):
        fixture = json.loads(path.read_text(encoding="utf-8"))
        fixture["path"] = str(path)
        fixtures.append(fixture)
    return fixtures


def replay_fixture(
    fixture: Mapping, harness: "FuzzHarness | None" = None
) -> str:
    """Re-run a banked reproducer; ``"ok"`` means the bug stays fixed.

    * ``kind="text"`` — the minimized text must parse or be rejected
      with ``ValueError``; no harness needed.
    * ``kind="table"`` — the minimized table must classify without
      crashing and with the fused plane agreeing with the reference
      (needs a harness).
    * ``kind="roundtrip"`` — the serialized text must parse back to the
      same labels as the original rows (needs a harness).

    Anything else comes back as the verdict that still reproduces.
    """
    repro = fixture.get("repro") or {}
    kind = repro.get("kind")
    if kind not in ("text", "table", "roundtrip"):
        raise ValueError(f"unknown fixture kind: {kind!r}")
    if kind == "text":
        from repro.serve.bulk import table_from_text

        try:
            table_from_text(
                repro.get("text", ""), suffix=repro.get("suffix", "")
            )
        except ValueError:
            return "ok"  # clean rejection is the contract
        except Exception:  # noqa: BLE001 - the verdict IS the catch
            return "crash"
        return "ok"
    if harness is None:
        raise ValueError(f"replaying a {kind!r} fixture needs a harness")
    if kind == "table":
        table = Table(repro["rows"], name=repro.get("name", ""))
        verdict, _, _ = harness.examine(table)
        return verdict
    from repro.serve.bulk import table_from_text

    original = Table(repro["rows"], name=repro.get("name", ""))
    try:
        parsed = table_from_text(
            repro.get("text", ""), suffix=repro.get("suffix", "")
        )
    except Exception:  # noqa: BLE001 - regression from flip to crash
        return "crash"
    if harness.oracle(parsed) != harness.oracle(original):
        return "flip"
    return "ok"
