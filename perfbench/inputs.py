"""Seeded inputs for every benchmark workload.

Everything the program receives is made here from the workload seed:
table files (CSV, JSON, Markdown, HTML) for ``repro batch``, JSON
request bodies for ``repro serve``, and the unlabeled training corpus
for ``fit``.  The generator's ground truth stays on the benchmark side
and is used only to check outputs and score accuracy.

Rebuild a seed's inputs without running anything::

    python3 perfbench/inputs.py --workload batch-threads --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The six dataset profiles of the paper, all fed to batch and serve.
PROFILES = ("cord19", "ckg", "cius", "saus", "wdc", "pubtables")
#: File formats of the batch directory, assigned per table from the seed.
FORMATS = (".csv", ".json", ".md", ".html")

#: The store behind batch and serve: ``repro fit``'s defaults (CKG,
#: 160 training tables, seed 1).  Fixed, so every seed classifies
#: against the same model; inputs come from other generator seeds.
STORE_PROFILE = "ckg"
STORE_SEED = 1
TRAIN_TABLES = 160
HELDOUT_TABLES = 300

#: Tables per batch run: 300 per profile.
BATCH_PER_PROFILE = 300
#: Requests per serve round and the share of them that re-send an
#: earlier table of the same round (a result-cache hit).
SERVE_ROUND = 1000
SERVE_RESEND_EVERY = 10  # every 10th request re-sends: a 10% share


def ensure_src_on_path() -> None:
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Expected:
    """Ground truth for one program input."""

    key: str  # file path (batch) or table name (serve)
    table: object  # repro.tables.model.Table
    annotation: object  # repro.tables.labels.TableAnnotation


def _stream_seed(seed: int, stream: int) -> int:
    # Generator seeds for workload inputs.  Multiplying keeps every seed
    # clear of the store's own training seed (STORE_SEED) and of the
    # registry's eval offset, so inputs are never training tables.
    return 1_000_003 * (seed + 1) + 7919 * stream


def generate(profile: str, n: int, seed: int, stream: int, prefix: str) -> list:
    ensure_src_on_path()
    from repro.corpus.generator import GSTGenerator
    from repro.corpus.profiles import get_profile

    generator = GSTGenerator(get_profile(profile).config, seed=_stream_seed(seed, stream))
    return generator.generate(n, name_prefix=prefix)


def render(item, suffix: str) -> str:
    """One generated table as the text of a file with ``suffix``."""
    from repro.tables.csvio import table_to_csv
    from repro.tables.html import render_html_table
    from repro.tables.jsonio import table_to_json
    from repro.tables.markdown import table_to_markdown

    if suffix == ".csv":
        return table_to_csv(item.table)
    if suffix == ".json":
        return table_to_json(item.table)
    if suffix == ".md":
        return table_to_markdown(item.table)
    return render_html_table(item.table, item.annotation)


def batch_inputs(seed: int, out_dir: Path) -> list[Expected]:
    """Write the batch directory; returns ground truth keyed by path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    expected: list[Expected] = []
    for stream, profile in enumerate(PROFILES):
        for i, item in enumerate(generate(profile, BATCH_PER_PROFILE, seed, stream, profile)):
            suffix = rng.choice(FORMATS)
            path = out_dir / f"{profile}-{i:05d}{suffix}"
            path.write_text(render(item, suffix))
            expected.append(Expected(str(path), item.table, item.annotation))
    return expected


def serve_round(seed: int, round_index: int) -> tuple[list[Expected], list[bytes]]:
    """One round of requests: unique JSON tables plus 10% re-sends.

    Returns the ground truth per request (re-sends repeat an earlier
    entry) and the request bodies, in send order.
    """
    ensure_src_on_path()
    from repro.tables.jsonio import table_to_json

    n_unique = SERVE_ROUND - SERVE_ROUND // SERVE_RESEND_EVERY
    per_profile = -(-n_unique // len(PROFILES))
    pool: list[Expected] = []
    for stream, profile in enumerate(PROFILES):
        # Streams 100+ keep serve tables apart from the batch tables.
        items = generate(profile, per_profile, seed, 100 + 10 * round_index + stream, profile)
        pool.extend(Expected(item.table.name, item.table, item.annotation) for item in items)
    rng = random.Random(seed * 1009 + round_index)
    rng.shuffle(pool)
    pool = pool[:n_unique]
    order: list[Expected] = []
    sent = 0
    for i in range(SERVE_ROUND):
        if i % SERVE_RESEND_EVERY == SERVE_RESEND_EVERY - 1 and sent:
            order.append(order[rng.randrange(len(order))])
        else:
            order.append(pool[sent])
            sent += 1
    bodies = [table_to_json(e.table).encode() for e in order]
    return order, bodies


def train_inputs(seed: int) -> tuple[list, list]:
    """(unlabeled training corpus, labeled held-out split) for ``fit``."""
    train = generate(STORE_PROFILE, TRAIN_TABLES, seed, 200, f"{STORE_PROFILE}-train")
    heldout = generate(STORE_PROFILE, HELDOUT_TABLES, seed, 201, f"{STORE_PROFILE}-heldout")
    return train, heldout


def store_corpus() -> list:
    """The fixed training corpus behind the batch and serve store."""
    ensure_src_on_path()
    from repro.corpus.registry import build_split

    train, _ = build_split(STORE_PROFILE, n_train=TRAIN_TABLES, n_eval=1, seed=STORE_SEED)
    return train


def write_corpus(items: list, path: Path) -> None:
    """The fit input: rows and HTML markup only, no labels."""
    with path.open("w") as handle:
        for item in items:
            handle.write(json.dumps({"name": item.table.name, "rows": [list(r) for r in item.table.rows], "html": item.html}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="rebuild one seed's benchmark inputs")
    parser.add_argument("--workload", required=True, choices=("train", "batch-threads", "batch-procs", "serve-http"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    ensure_src_on_path()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload == "train":
        train, heldout = train_inputs(args.seed)
        write_corpus(train, args.out / "train.jsonl")
        write_corpus(heldout, args.out / "heldout.jsonl")
        count = len(train) + len(heldout)
    elif args.workload == "serve-http":
        order, bodies = serve_round(args.seed, 0)
        with (args.out / "requests-round0.jsonl").open("w") as handle:
            for body in bodies:
                handle.write(body.decode() + "\n")
        count = len(bodies)
    else:
        count = len(batch_inputs(args.seed, args.out / "tables"))
    print(f"wrote {count} inputs for {args.workload} seed {args.seed} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
