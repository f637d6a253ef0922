"""The adversarial fuzz campaign (``repro fuzz``).

One campaign is a pure function of its :class:`FuzzConfig`: the corpus
tables, the per-case mutator choice, and every mutation draw derive
from ``SeedSequence((seed, case_index))``, so two runs with the same
seed and budget produce the identical case sequence and verdicts — on
one process or sharded across a :class:`~repro.parallel.ShardedPool`.

Each case mutates one real corpus table and pushes the mutant through
ingestion (text mutants) and classification through the fused plane
and the level-by-level reference of the same fitted pipeline, hunting:

* **crash** — any exception out of parse or classify (parsers may
  reject malformed text with ``ValueError``; anything else is a
  crash, and for round-trip mutants even ``ValueError`` is);
* **divergence** — the fused plane and the reference disagree on the
  mutant's labels (the byte-identical-labels contract, under
  adversarial input);
* **flip** — a round-trip mutant (``relation="equal"``) classifies
  differently from the unmutated oracle, i.e. an ingestion bug.

Failures are delta-debugged to minimal reproducers
(:mod:`repro.quality.minimize`) and can be banked as regression
fixtures (:mod:`repro.quality.bank`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.classifier import MetadataClassifier, reference_classify
from repro.core.pipeline import MetadataPipeline, PipelineConfig
from repro.embeddings.word2vec import Word2VecConfig
from repro.quality.minimize import minimize_table, minimize_text
from repro.quality.mutators import (
    Mutant,
    MutatorSpec,
    apply_mutator,
    get_mutators,
)
from repro.tables.labels import TableAnnotation
from repro.tables.model import Table

logger = logging.getLogger("repro.quality.fuzzer")

#: Sharding below this budget costs more in pool spin-up than it saves.
MIN_SHARDED_BUDGET = 64

FAILURE_VERDICTS = ("crash", "divergence", "flip")


@dataclass(frozen=True)
class FuzzConfig:
    """Everything a campaign needs; the seed fixes all randomness."""

    budget: int = 200
    seed: int = 0
    dataset: str = "ckg"
    n_tables: int = 48
    n_train: int = 60
    backends: tuple[str, ...] = ("hashed",)
    mutators: tuple[str, ...] | None = None
    minimize_checks: int = 120

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if not self.backends:
            raise ValueError("need at least one backend")

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "dataset": self.dataset,
            "n_tables": self.n_tables,
            "n_train": self.n_train,
            "backends": list(self.backends),
            "mutators": None if self.mutators is None else list(self.mutators),
            "minimize_checks": self.minimize_checks,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FuzzConfig":
        mutators = payload.get("mutators")
        return cls(
            budget=int(payload["budget"]),
            seed=int(payload["seed"]),
            dataset=str(payload["dataset"]),
            n_tables=int(payload["n_tables"]),
            n_train=int(payload["n_train"]),
            backends=tuple(payload["backends"]),
            mutators=None if mutators is None else tuple(mutators),
            minimize_checks=int(payload.get("minimize_checks", 120)),
        )


@dataclass(frozen=True)
class FuzzCase:
    """One campaign case: which mutation ran and what came of it."""

    index: int
    mutator: str
    table_name: str
    verdict: str  # ok | skip | crash | divergence | flip
    detail: str = ""
    repro: dict | None = None  # minimized reproducer (failures only)

    @property
    def failed(self) -> bool:
        return self.verdict in FAILURE_VERDICTS

    def to_dict(self) -> dict:
        payload: dict = {
            "index": self.index,
            "mutator": self.mutator,
            "table": self.table_name,
            "verdict": self.verdict,
        }
        if self.detail:
            payload["detail"] = self.detail
        if self.repro is not None:
            payload["repro"] = self.repro
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FuzzCase":
        return cls(
            index=int(payload["index"]),
            mutator=str(payload["mutator"]),
            table_name=str(payload["table"]),
            verdict=str(payload["verdict"]),
            detail=str(payload.get("detail", "")),
            repro=payload.get("repro"),
        )


@dataclass
class FuzzReport:
    """Campaign outcome: the config echo plus every case."""

    config: FuzzConfig
    cases: list[FuzzCase] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        counts = {v: 0 for v in ("ok", "skip", "crash", "divergence", "flip")}
        for case in self.cases:
            counts[case.verdict] = counts.get(case.verdict, 0) + 1
        return counts

    @property
    def failures(self) -> list[FuzzCase]:
        return [case for case in self.cases if case.failed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "kind": "fuzz-report",
            "config": self.config.to_dict(),
            "counts": self.counts,
            "cases": [case.to_dict() for case in self.cases],
        }

    def summary(self) -> str:
        counts = self.counts
        return (
            f"fuzz: {len(self.cases)} cases — "
            f"{counts['ok']} ok, {counts['skip']} skipped, "
            f"{counts['crash']} crashes, {counts['divergence']} divergences, "
            f"{counts['flip']} flips"
        )


# ---------------------------------------------------------------------------
# the differential harness
# ---------------------------------------------------------------------------

class FuzzHarness:
    """The fused plane and the level-by-level reference of one pipeline.

    Both read the same fitted embedder, centroids, and projection, so a
    disagreement is a plane bug, not a training difference.
    """

    def __init__(self, pipeline: MetadataPipeline, *, backend: str = "") -> None:
        if pipeline.classifier is None:
            raise ValueError("the fuzz harness needs a fitted pipeline")
        self.backend = backend or pipeline.config.embedding
        self.pipeline = pipeline
        self._classifier = pipeline.classifier
        #: The plane under test (tests swap in a broken stand-in).
        self.fused: MetadataClassifier = pipeline.classifier

    def oracle(self, table: Table) -> TableAnnotation:
        """The production labels for an unmutated table."""
        return self._classifier.classify(table)

    def reference(self, table: Table) -> TableAnnotation:
        return reference_classify(self._classifier, table)

    def examine(
        self, table: Table
    ) -> tuple[str, str, TableAnnotation | None]:
        """Classify on the fused plane and the reference;
        ``(verdict, detail, labels)``."""
        results: dict[str, TableAnnotation] = {}
        for plane in ("fused", "reference"):
            try:
                if plane == "fused":
                    annotation = self.fused.classify(table)
                else:
                    annotation = self.reference(table)
            except Exception as exc:  # noqa: BLE001 - the verdict IS the catch
                return (
                    "crash",
                    f"{self.backend}/{plane} classify raised "
                    f"{type(exc).__name__}: {exc}",
                    None,
                )
            results[plane] = annotation
        if results["fused"] != results["reference"]:
            return (
                "divergence",
                f"{self.backend}: fused labels differ from the reference",
                results["reference"],
            )
        return "ok", "", results["fused"]


# ---------------------------------------------------------------------------
# campaign plumbing
# ---------------------------------------------------------------------------

def fuzz_pipeline_config(
    dataset: str, backend: str, seed: int
) -> PipelineConfig:
    """The pipeline the campaign classifies with.

    Contrastive refinement is off: the fuzzer probes classification
    robustness, not accuracy, and the Siamese fit would triple the
    campaign's start-up cost for identical crash surfaces.
    """
    from repro.corpus.profiles import get_profile

    profile = get_profile(dataset)
    return PipelineConfig(
        embedding=backend,
        word2vec=Word2VecConfig(dim=32, epochs=2, seed=seed + 11),
        bootstrap="html" if profile.has_markup else "first_level",
        use_contrastive=False,
        n_pairs=200,
        seed=seed,
    )


def build_harness(config: FuzzConfig, backend: str) -> FuzzHarness:
    """Fit one pipeline for ``backend`` and wrap it in a harness."""
    from repro.corpus.registry import build_split

    train, _ = build_split(
        config.dataset, n_train=config.n_train, n_eval=1, seed=config.seed
    )
    pipeline_config = fuzz_pipeline_config(config.dataset, backend, config.seed)
    with obs.span("fuzz.fit", backend=backend, n_train=len(train)):
        pipeline = MetadataPipeline(pipeline_config).fit(train)
    return FuzzHarness(pipeline, backend=backend)


def campaign_tables(config: FuzzConfig) -> list[Table]:
    """The deterministic pool of real corpus tables the mutators feed on."""
    from repro.corpus.registry import build_corpus

    corpus = build_corpus(
        config.dataset, n_tables=config.n_tables, seed=config.seed + 977
    )
    return [item.table for item in corpus]


def case_rng(seed: int, index: int) -> np.random.Generator:
    """The per-case generator; sharding-invariant by construction."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _parse_mutant(mutant: Mutant, name: str) -> Table:
    from repro.serve.bulk import table_from_text

    return table_from_text(mutant.text or "", suffix=mutant.suffix, name=name)


def _table_repro(table: Table, mutant_of: str) -> dict:
    return {
        "kind": "table",
        "mutator": mutant_of,
        "rows": [list(row) for row in table.rows],
        "name": table.name,
    }


def _examine_all(
    harnesses: Sequence[FuzzHarness], table: Table
) -> tuple[str, str, dict[str, TableAnnotation]]:
    """Run every backend harness; first failure wins."""
    labels: dict[str, TableAnnotation] = {}
    for harness in harnesses:
        verdict, detail, annotation = harness.examine(table)
        if verdict != "ok":
            return verdict, detail, labels
        if annotation is not None:
            labels[harness.backend] = annotation
    return "ok", "", labels


def run_case(
    index: int,
    config: FuzzConfig,
    harnesses: Sequence[FuzzHarness],
    tables: Sequence[Table],
    specs: Sequence[MutatorSpec],
    oracles: Callable[[int], dict[str, TableAnnotation]],
) -> FuzzCase:
    """Evaluate one case; deterministic in ``(config.seed, index)``."""
    rng = case_rng(config.seed, index)
    spec = specs[int(rng.integers(0, len(specs)))]
    t_idx = int(rng.integers(0, len(tables)))
    table = tables[t_idx]

    def case(verdict: str, detail: str = "", repro: dict | None = None) -> FuzzCase:
        return FuzzCase(
            index=index, mutator=spec.name, table_name=table.name,
            verdict=verdict, detail=detail, repro=repro,
        )

    mutant = apply_mutator(spec, table, rng)
    if mutant is None:
        return case("skip", "mutator does not apply")

    # --- ingestion (text mutants parse first) --------------------------
    if mutant.kind == "text":
        text = mutant.text or ""
        try:
            mutated = _parse_mutant(mutant, table.name)
        except ValueError as exc:
            if spec.relation == "equal":
                # A parser rejecting its own serializer's output is a
                # round-trip bug, not a malformed input.
                repro = _minimize_parse_crash(
                    text, mutant.suffix, type(exc), config, spec.name
                )
                return case(
                    "crash",
                    f"round trip rejected by parser: {exc}",
                    repro,
                )
            return case("ok", f"parser rejected input: {exc}")
        except Exception as exc:  # noqa: BLE001 - the verdict IS the catch
            repro = _minimize_parse_crash(
                text, mutant.suffix, type(exc), config, spec.name
            )
            return case(
                "crash",
                f"parse raised {type(exc).__name__}: {exc}",
                repro,
            )
    else:
        mutated = mutant.table if mutant.table is not None else table

    # --- classification across planes and backends ---------------------
    verdict, detail, labels = _examine_all(harnesses, mutated)
    if verdict != "ok":
        minimized = minimize_table(
            mutated,
            lambda t: _examine_all(harnesses, t)[0] == verdict,
            max_checks=config.minimize_checks,
        )
        return case(verdict, detail, _table_repro(minimized, spec.name))

    # --- oracle comparison (round-trip mutants only) --------------------
    if spec.relation == "equal":
        for backend, annotation in labels.items():
            reference = oracles(t_idx).get(backend)
            if reference is not None and annotation != reference:
                repro = _minimize_flip(
                    table, spec, config, index, harnesses
                )
                return case(
                    "flip",
                    f"{backend}: {spec.name} round trip flipped labels",
                    repro,
                )
    return case("ok", mutant.note)


def _minimize_parse_crash(
    text: str,
    suffix: str,
    exc_type: type,
    config: FuzzConfig,
    mutator: str,
) -> dict:
    from repro.serve.bulk import table_from_text

    def still_crashes(candidate: str) -> bool:
        try:
            table_from_text(candidate, suffix=suffix)
        except exc_type:
            return True
        except Exception:  # noqa: BLE001 - a different failure; keep hunting
            return False
        return False

    minimized = minimize_text(
        text, still_crashes, max_checks=config.minimize_checks
    )
    return {
        "kind": "text",
        "mutator": mutator,
        "suffix": suffix,
        "text": minimized,
        "exception": exc_type.__name__,
    }


def _minimize_flip(
    table: Table,
    spec: MutatorSpec,
    config: FuzzConfig,
    index: int,
    harnesses: Sequence[FuzzHarness],
) -> dict:
    """Shrink the *original* table while the round trip still flips."""

    def flips(candidate: Table) -> bool:
        # re-derive the case rng so seeded serializers stay deterministic
        mutant = apply_mutator(spec, candidate, case_rng(config.seed, index))
        if mutant is None or mutant.text is None:
            return False
        try:
            parsed = _parse_mutant(mutant, candidate.name)
        except Exception:  # noqa: BLE001 - that would be a crash, not a flip
            return False
        for harness in harnesses:
            try:
                if harness.oracle(parsed) != harness.oracle(candidate):
                    return True
            except Exception:  # noqa: BLE001
                return False
        return False

    minimized = minimize_table(table, flips, max_checks=config.minimize_checks)
    mutant = apply_mutator(spec, minimized, case_rng(config.seed, index))
    return {
        "kind": "roundtrip",
        "mutator": spec.name,
        "rows": [list(row) for row in minimized.rows],
        "name": minimized.name,
        "suffix": mutant.suffix if mutant is not None else "",
        "text": mutant.text if mutant is not None else "",
    }


def run_cases(
    config: FuzzConfig,
    harnesses: Sequence[FuzzHarness],
    indices: Sequence[int],
) -> list[FuzzCase]:
    """Evaluate the given case indices against prepared harnesses."""
    tables = campaign_tables(config)
    specs = get_mutators(config.mutators)
    oracle_cache: dict[int, dict[str, TableAnnotation]] = {}

    def oracles(t_idx: int) -> dict[str, TableAnnotation]:
        if t_idx not in oracle_cache:
            oracle_cache[t_idx] = {
                h.backend: h.oracle(tables[t_idx]) for h in harnesses
            }
        return oracle_cache[t_idx]

    cases = []
    for index in indices:
        with obs.span("fuzz.case", index=index) as case_span:
            result = run_case(index, config, harnesses, tables, specs, oracles)
            case_span.set(mutator=result.mutator, verdict=result.verdict)
        if result.failed:
            logger.warning(
                "fuzz case %d (%s on %s): %s — %s",
                index, result.mutator, result.table_name,
                result.verdict, result.detail,
            )
        cases.append(result)
    return cases


# ---------------------------------------------------------------------------
# entry points (serial and sharded)
# ---------------------------------------------------------------------------

def run_fuzz(config: FuzzConfig, *, procs: int | None = None) -> FuzzReport:
    """Run a campaign; ``procs`` shards cases across worker processes.

    The sharded path produces the same report as the serial one — every
    case derives its randomness from ``(seed, index)``, so the shard
    assignment cannot change outcomes.
    """
    with obs.span(
        "fuzz", budget=config.budget, seed=config.seed, dataset=config.dataset
    ):
        if (
            procs is not None
            and procs > 1
            and config.budget >= MIN_SHARDED_BUDGET
        ):
            cases = _run_sharded(config, procs)
        else:
            harnesses = [
                build_harness(config, backend) for backend in config.backends
            ]
            cases = run_cases(config, harnesses, range(config.budget))
    return FuzzReport(config=config, cases=cases)


def fuzz_shard(config_payload: dict, indices: list[int]) -> list[dict]:
    """Worker-side shard entry point (top-level: spawn pickles by name).

    The pool initializer already loaded one pipeline per backend (the
    parent saved them as directory stores), so the shard only rebuilds
    the cheap campaign state: tables, mutator specs, oracles.
    """
    from repro.parallel import _worker

    config = FuzzConfig.from_dict(config_payload)
    harnesses = [
        FuzzHarness(_worker.get_model(backend), backend=backend)
        for backend in config.backends
    ]
    return [case.to_dict() for case in run_cases(config, harnesses, indices)]


def _run_sharded(config: FuzzConfig, procs: int) -> list[FuzzCase]:
    import tempfile
    from pathlib import Path

    from repro.core.persistence import save_pipeline_dir
    from repro.parallel import ShardedPool
    from repro.parallel.sharding import split_shards

    with tempfile.TemporaryDirectory() as tmp:
        specs = {}
        for backend in config.backends:
            harness = build_harness(config, backend)
            specs[backend] = save_pipeline_dir(
                harness.pipeline, Path(tmp) / backend
            )
        with ShardedPool(
            specs,
            procs=procs,
            default=config.backends[0],
            cache_capacity=0,
        ) as pool:
            shards = split_shards(list(range(config.budget)), pool.procs * 4)
            payload = config.to_dict()
            futures = [
                pool.run_task(fuzz_shard, payload, shard)
                for shard in shards
                if shard
            ]
            cases = [
                FuzzCase.from_dict(case)
                for future in futures
                for case in future.result()
            ]
    cases.sort(key=lambda case: case.index)
    return cases
