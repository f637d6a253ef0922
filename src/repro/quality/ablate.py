"""Config-driven component-knockout ablations (``repro ablate``).

Generalizes the hand-written studies in
:mod:`repro.experiments.ablations` into a **knockout registry**: each
component is one design choice the pipeline makes, with a function that
disables it.  A run fits the baseline once per backend, then scores
every knockout against that baseline, and emits a machine-readable
impact report — per-component accuracy deltas — that
``benchmarks/record_trajectory.py`` folds into ``BENCH_trajectory.json``
next to the perf numbers.

Two knockout kinds keep runs cheap:

* ``fit`` knockouts change how the pipeline *trains* (contrastive
  refinement, bootstrap source, aggregation): they turn the baseline
  configuration into an unfitted pipeline, which the run fits;
* ``classify`` knockouts change only the *decision walk* (depth caps,
  CMD detection) and re-score the already-fitted baseline with a
  reconfigured classifier.

All accuracies are raw fractions in [0, 1].
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

from repro import obs
from repro.core.classifier import ClassifierConfig, MetadataClassifier
from repro.core.metrics import evaluate_corpus
from repro.core.pipeline import MetadataPipeline, PipelineConfig

# ---------------------------------------------------------------------------
# the knockout registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentSpec:
    """One knockout: a named design choice and how to disable it."""

    name: str
    kind: str  # "fit" (refit the pipeline) | "classify" (re-score only)
    description: str
    knock_fit: Callable[[PipelineConfig], MetadataPipeline] | None = None
    knock_classify: Callable[[ClassifierConfig], ClassifierConfig] | None = None


_REGISTRY: dict[str, ComponentSpec] = {}


def _register(spec: ComponentSpec) -> ComponentSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate component: {spec.name!r}")
    if spec.kind not in ("fit", "classify"):
        raise ValueError(f"unknown knockout kind: {spec.kind!r}")
    _REGISTRY[spec.name] = spec
    return spec


def component_names() -> list[str]:
    """Every registered knockout, sorted."""
    return sorted(_REGISTRY)


def get_components(names: tuple[str, ...] | None = None) -> list[ComponentSpec]:
    if names is None:
        return [_REGISTRY[name] for name in component_names()]
    unknown = [name for name in names if name not in _REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown components: {unknown}; known: {component_names()}"
        )
    return [_REGISTRY[name] for name in names]


def _knock_aggregation(config: PipelineConfig) -> MetadataPipeline:
    from repro.experiments.aggregation import MeanLevelPipeline

    return MeanLevelPipeline(config)


_register(ComponentSpec(
    name="contrastive",
    kind="fit",
    description="Siamese contrastive projection off (raw embedding space)",
    knock_fit=lambda c: MetadataPipeline(replace(c, use_contrastive=False)),
))
_register(ComponentSpec(
    name="bootstrap-markup",
    kind="fit",
    description="HTML-markup bootstrap replaced by first-row/column fallback",
    knock_fit=lambda c: MetadataPipeline(replace(c, bootstrap="first_level")),
))
_register(ComponentSpec(
    name="aggregation-sum",
    kind="fit",
    description="summation aggregation (Def. 8) replaced by the mean",
    knock_fit=_knock_aggregation,
))
_register(ComponentSpec(
    name="depth",
    kind="classify",
    description="hierarchy capped at depth 1 (no deep HMD/VMD levels)",
    knock_classify=lambda c: replace(c, max_hmd_depth=1, max_vmd_depth=1),
))
_register(ComponentSpec(
    name="cmd-detect",
    kind="classify",
    description="cross-metadata (CMD) row detection off",
    knock_classify=lambda c: replace(c, detect_cmd=False),
))


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationConfig:
    """One sweep: backends × knockouts on a fixed corpus split."""

    dataset: str = "ckg"
    backends: tuple[str, ...] = ("hashed", "word2vec")
    components: tuple[str, ...] | None = None  # None = every knockout
    n_train: int = 80
    n_eval: int = 40
    dim: int = 32
    epochs: int = 2
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.backends:
            raise ValueError("need at least one backend")
        get_components(self.components)  # validate early

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "backends": list(self.backends),
            "components": (
                None if self.components is None else list(self.components)
            ),
            "n_train": self.n_train,
            "n_eval": self.n_eval,
            "dim": self.dim,
            "epochs": self.epochs,
            "seed": self.seed,
        }


def quick_config() -> AblationConfig:
    """The CI preset: one cheap backend, a small split, every knockout."""
    return AblationConfig(
        backends=("hashed",), n_train=48, n_eval=24, epochs=1
    )


def load_ablation_config(path: str | Path) -> AblationConfig:
    """Read an :class:`AblationConfig` from a JSON file.

    Schema: any subset of the dataclass fields; lists become tuples.
    Unknown keys are an error so typos fail loudly.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("ablation config must be a JSON object")
    known = {
        "dataset", "backends", "components",
        "n_train", "n_eval", "dim", "epochs", "seed",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(f"unknown ablation config keys: {unknown}")
    for key in ("backends", "components"):
        if payload.get(key) is not None:
            payload[key] = tuple(payload[key])
    return AblationConfig(**payload)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnockoutResult:
    """One (backend, component) cell of the sweep."""

    backend: str
    component: str  # "baseline" for the unmodified pipeline
    kind: str
    hmd1: float | None
    vmd1: float | None
    row_binary: float | None
    seconds: float
    delta_hmd1: float | None = None  # knockout − baseline (None for baseline)

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "component": self.component,
            "kind": self.kind,
            "hmd1": self.hmd1,
            "vmd1": self.vmd1,
            "row_binary": self.row_binary,
            "seconds": round(self.seconds, 3),
            "delta_hmd1": self.delta_hmd1,
        }


@dataclass
class AblationReport:
    """The machine-readable impact report a sweep emits."""

    config: AblationConfig
    results: list[KnockoutResult] = field(default_factory=list)

    @property
    def baselines(self) -> dict[str, KnockoutResult]:
        return {
            r.backend: r for r in self.results if r.component == "baseline"
        }

    @property
    def baseline_hmd1(self) -> float | None:
        """Best baseline HMD1 across backends (the gated number)."""
        scores = [
            r.hmd1 for r in self.baselines.values() if r.hmd1 is not None
        ]
        return max(scores) if scores else None

    @property
    def worst_knockout(self) -> KnockoutResult | None:
        """The knockout that costs the most HMD1 (most negative delta)."""
        knockouts = [
            r for r in self.results
            if r.component != "baseline" and r.delta_hmd1 is not None
        ]
        if not knockouts:
            return None
        return min(knockouts, key=lambda r: r.delta_hmd1 or 0.0)

    def to_dict(self) -> dict:
        worst = self.worst_knockout
        return {
            "kind": "ablation-report",
            "config": self.config.to_dict(),
            "results": [r.to_dict() for r in self.results],
            "summary": {
                "baseline_hmd1": self.baseline_hmd1,
                "worst_component": worst.component if worst else None,
                "worst_delta_hmd1": worst.delta_hmd1 if worst else None,
            },
        }

    def summary(self) -> str:
        worst = self.worst_knockout
        base = self.baseline_hmd1
        lines = [
            f"ablation: {len(self.results)} cells, "
            f"baseline hmd1={base:.3f}" if base is not None
            else f"ablation: {len(self.results)} cells, baseline hmd1=n/a"
        ]
        if worst is not None and worst.delta_hmd1 is not None:
            lines.append(
                f"worst knockout: {worst.component} "
                f"({worst.backend}, Δhmd1={worst.delta_hmd1:+.3f})"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def _base_config(config: AblationConfig, backend: str) -> PipelineConfig:
    from repro.corpus.profiles import get_profile
    from repro.embeddings.word2vec import Word2VecConfig

    profile = get_profile(config.dataset)
    return PipelineConfig(
        embedding=backend,
        word2vec=Word2VecConfig(
            dim=config.dim, epochs=config.epochs, seed=config.seed + 11
        ),
        bootstrap="html" if profile.has_markup else "first_level",
        seed=config.seed,
    )


def _score(
    classify: Callable, evaluation: list
) -> tuple[float | None, float | None, float | None]:
    result = evaluate_corpus(evaluation, classify)
    return (
        result.hmd_accuracy.get(1),
        result.vmd_accuracy.get(1),
        result.row_binary_accuracy,
    )


def _classifier_variant(
    pipeline: MetadataPipeline, knock: Callable[[ClassifierConfig], ClassifierConfig]
) -> MetadataClassifier:
    base = pipeline.classifier
    if base is None:
        raise ValueError("the ablation runner needs a fitted pipeline")
    return MetadataClassifier(
        base.embedder,
        base.row_centroids,
        base.col_centroids,
        projection=base.projection,
        config=knock(base.config),
    )


def run_ablation(config: AblationConfig) -> AblationReport:
    """Fit baselines, score every knockout, return the impact report."""
    from repro.corpus.registry import build_split

    specs = get_components(config.components)
    report = AblationReport(config=config)
    train, evaluation = build_split(
        config.dataset,
        n_train=config.n_train,
        n_eval=config.n_eval,
        seed=config.seed,
    )
    with obs.span(
        "ablate", dataset=config.dataset, backends=",".join(config.backends)
    ):
        for backend in config.backends:
            base = _base_config(config, backend)
            start = time.perf_counter()
            with obs.span("ablate.fit", backend=backend, component="baseline"):
                pipeline = MetadataPipeline(base).fit(train)
            hmd1, vmd1, row_binary = _score(pipeline.classify, evaluation)
            baseline = KnockoutResult(
                backend=backend, component="baseline", kind="fit",
                hmd1=hmd1, vmd1=vmd1, row_binary=row_binary,
                seconds=time.perf_counter() - start,
            )
            report.results.append(baseline)
            for spec in specs:
                report.results.append(
                    _run_knockout(spec, base, pipeline, train, evaluation, baseline)
                )
    return report


def _run_knockout(
    spec: ComponentSpec,
    base: PipelineConfig,
    pipeline: MetadataPipeline,
    train: list,
    evaluation: list,
    baseline: KnockoutResult,
) -> KnockoutResult:
    start = time.perf_counter()
    with obs.span(
        "ablate.knockout", backend=baseline.backend, component=spec.name
    ):
        if spec.kind == "fit":
            if spec.knock_fit is None:
                raise ValueError(f"{spec.name}: fit knockout without knock_fit")
            knocked = spec.knock_fit(base).fit(train)
            hmd1, vmd1, row_binary = _score(knocked.classify, evaluation)
        else:
            if spec.knock_classify is None:
                raise ValueError(
                    f"{spec.name}: classify knockout without knock_classify"
                )
            variant = _classifier_variant(pipeline, spec.knock_classify)
            hmd1, vmd1, row_binary = _score(variant.classify, evaluation)
    delta = (
        hmd1 - baseline.hmd1
        if hmd1 is not None and baseline.hmd1 is not None
        else None
    )
    return KnockoutResult(
        backend=baseline.backend,
        component=spec.name,
        kind=spec.kind,
        hmd1=hmd1,
        vmd1=vmd1,
        row_binary=row_binary,
        seconds=time.perf_counter() - start,
        delta_hmd1=delta,
    )


def write_report(report: Mapping | AblationReport, path: str | Path) -> Path:
    """Serialize an impact (or fuzz) report as pretty JSON."""
    payload = report.to_dict() if hasattr(report, "to_dict") else dict(report)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return out
