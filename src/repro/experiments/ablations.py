"""Ablations of the design choices the paper argues for (Sec. III-C).

Each ablation isolates one choice on the CKG stand-in:

* **aggregation** — summation (Def. 8) vs concatenation (the rejected
  alternative) vs mean;
* **similarity** — angle vs Euclidean vs Jaccard, measured as the
  separability of (metadata, data) level pairs from (data, data) pairs;
* **contrastive refinement** — pipeline accuracy with and without the
  Siamese projection;
* **bootstrap source** — HTML markup vs the first-row/column fallback;
* **embedding backend** — word2vec vs contextual vs hashed;
* **hybrid routing** (Sec. IV-G) — accuracy and per-table cost of the
  hybrid classifier vs the full pipeline on a mixed corpus.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.core.aggregate import aggregate_level
from repro.core.angles import angle_between, euclidean_distance, jaccard_similarity
from repro.core.bootstrap import bootstrap_corpus
from repro.core.metrics import evaluate_corpus
from repro.core.pipeline import HybridClassifier, MetadataPipeline
from repro.experiments.aggregation import ConcatLevelPipeline, MeanLevelPipeline
from repro.experiments.centroid_tables import ExperimentResult
from repro.experiments.reporting import percent
from repro.invariants import not_none
from repro.experiments.runner import (
    ExperimentScale,
    SMOKE,
    eval_corpus_for,
    pipeline_config_for,
    train_corpus_for,
)
from repro.text import tokenize_cells


def _fit_and_score(
    pipeline: MetadataPipeline, train, evaluation
) -> dict[str, float | None]:
    pipeline.fit(train)
    result = evaluate_corpus(evaluation, pipeline.classify)
    return {
        "hmd1": percent(result.hmd_accuracy.get(1)),
        "hmd_deep": percent(
            float(np.mean([v for k, v in result.hmd_accuracy.items() if k >= 2]))
            if any(k >= 2 for k in result.hmd_accuracy)
            else None
        ),
        "vmd1": percent(result.vmd_accuracy.get(1)),
        "row_binary": percent(result.row_binary_accuracy),
    }


def run_ablation_contrastive(
    scale: ExperimentScale = SMOKE, *, dataset: str = "ckg"
) -> ExperimentResult:
    """Contrastive refinement on vs off."""
    train = train_corpus_for(dataset, scale)
    evaluation = eval_corpus_for(dataset, scale)
    base = pipeline_config_for(dataset, scale)
    rows = []
    for label, on in (("with contrastive", True), ("without contrastive", False)):
        scores = _fit_and_score(
            MetadataPipeline(replace(base, use_contrastive=on)), train, evaluation
        )
        rows.append((label, scores["hmd1"], scores["hmd_deep"], scores["vmd1"]))
    return ExperimentResult(
        table_id="ablation-contrastive",
        title=f"Ablation: contrastive refinement ({dataset})",
        headers=("Variant", "HMD1", "HMD deep (mean 2+)", "VMD1"),
        rows=tuple(rows),
    )


def run_ablation_bootstrap(
    scale: ExperimentScale = SMOKE, *, dataset: str = "ckg"
) -> ExperimentResult:
    """HTML-markup bootstrap vs the first-row/column fallback."""
    train = train_corpus_for(dataset, scale)
    evaluation = eval_corpus_for(dataset, scale)
    base = pipeline_config_for(dataset, scale)
    rows = []
    for label, mode in (("html markup", "html"), ("first level only", "first_level")):
        scores = _fit_and_score(
            MetadataPipeline(replace(base, bootstrap=mode)), train, evaluation
        )
        rows.append((label, scores["hmd1"], scores["hmd_deep"], scores["vmd1"]))
    return ExperimentResult(
        table_id="ablation-bootstrap",
        title=f"Ablation: bootstrap source ({dataset})",
        headers=("Variant", "HMD1", "HMD deep (mean 2+)", "VMD1"),
        rows=tuple(rows),
    )


def run_ablation_embedding(
    scale: ExperimentScale = SMOKE, *, dataset: str = "ckg"
) -> ExperimentResult:
    """Embedding backend comparison."""
    train = train_corpus_for(dataset, scale)
    evaluation = eval_corpus_for(dataset, scale)
    base = pipeline_config_for(dataset, scale)
    rows = []
    for backend in ("word2vec", "ppmi", "contextual", "hashed"):
        start = time.perf_counter()
        scores = _fit_and_score(
            MetadataPipeline(replace(base, embedding=backend)), train, evaluation
        )
        elapsed = time.perf_counter() - start
        rows.append(
            (backend, scores["hmd1"], scores["vmd1"], round(elapsed, 2))
        )
    return ExperimentResult(
        table_id="ablation-embedding",
        title=f"Ablation: embedding backend ({dataset})",
        headers=("Backend", "HMD1", "VMD1", "Fit+eval (s)"),
        rows=tuple(rows),
    )


def run_ablation_aggregation(
    scale: ExperimentScale = SMOKE, *, dataset: str = "ckg"
) -> ExperimentResult:
    """Summation vs mean vs concatenation (Sec. III-C's argument)."""
    train = train_corpus_for(dataset, scale)
    evaluation = eval_corpus_for(dataset, scale)
    base = pipeline_config_for(dataset, scale)
    variants = (
        ("sum", MetadataPipeline(base)),
        ("mean", MeanLevelPipeline(base)),
        ("concat", ConcatLevelPipeline(base, terms=6)),
    )
    rows = []
    for mode, pipeline in variants:
        start = time.perf_counter()
        scores = _fit_and_score(pipeline, train, evaluation)
        elapsed = time.perf_counter() - start
        rows.append((mode, scores["hmd1"], scores["vmd1"], round(elapsed, 2)))
    return ExperimentResult(
        table_id="ablation-aggregation",
        title=f"Ablation: level aggregation ({dataset})",
        headers=("Mode", "HMD1", "VMD1", "Fit+eval (s)"),
        rows=tuple(rows),
    )


def run_ablation_similarity(
    scale: ExperimentScale = SMOKE, *, dataset: str = "ckg"
) -> ExperimentResult:
    """Angle vs Euclidean vs Jaccard (Sec. III-C's argument).

    Two AUCs per measure, both "probability that a (metadata, data)
    cross pair ranks as *more distant* than a same-kind pair":

    * **semantic AUC** — same-kind pairs are (data, data) level pairs;
      Jaccard fails here (disjoint numeric rows look maximally distant);
    * **width AUC** — same-kind pairs are (level, width-doubled level):
      the identical content repeated twice, i.e. the same direction at
      twice the magnitude.  This is the paper's explicit argument:
      "two rows with very similar content can still exhibit a
      significant difference in their vectors magnitude" — Euclidean
      fails here, the angle does not.

    The angle is the only measure strong on both, which is exactly why
    the paper picks it.
    """
    from repro.experiments.runner import fitted_pipeline

    pipeline = fitted_pipeline(dataset, scale)
    embedder = not_none(pipeline.embedder, "fitted pipeline's embedder")
    labeled = bootstrap_corpus(train_corpus_for(dataset, scale)[:60])

    measures = ("angle", "euclidean", "jaccard")
    cross: dict[str, list[float]] = {m: [] for m in measures}
    within: dict[str, list[float]] = {m: [] for m in measures}
    doubled: dict[str, list[float]] = {m: [] for m in measures}

    def distances(vec_a, vec_b, tok_a, tok_b) -> dict[str, float]:
        return {
            "angle": angle_between(vec_a, vec_b),
            "euclidean": euclidean_distance(vec_a, vec_b),
            "jaccard": 1.0 - jaccard_similarity(tok_a, tok_b),
        }

    for item in labeled:
        meta_rows = [item.table.row(i) for i in item.metadata_row_indices[:2]]
        data_rows = [item.table.row(i) for i in item.data_row_indices[:4]]
        if not meta_rows or len(data_rows) < 2:
            continue
        meta_vecs = [aggregate_level(embedder, r) for r in meta_rows]
        data_vecs = [aggregate_level(embedder, r) for r in data_rows]
        meta_tokens = [{t.text for t in tokenize_cells(r)} for r in meta_rows]
        data_tokens = [{t.text for t in tokenize_cells(r)} for r in data_rows]

        for mv, mt in zip(meta_vecs, meta_tokens):
            for dv, dt in zip(data_vecs, data_tokens):
                for m, value in distances(mv, dv, mt, dt).items():
                    cross[m].append(value)
        for a in range(len(data_vecs)):
            for b in range(a + 1, len(data_vecs)):
                for m, value in distances(
                    data_vecs[a], data_vecs[b], data_tokens[a], data_tokens[b]
                ).items():
                    within[m].append(value)
        # Width-doubled variants: same level, cells repeated twice.
        for row, vec, tokens in zip(
            meta_rows + data_rows, meta_vecs + data_vecs, meta_tokens + data_tokens
        ):
            wide_vec = aggregate_level(embedder, tuple(row) + tuple(row))
            for m, value in distances(vec, wide_vec, tokens, tokens).items():
                doubled[m].append(value)

    def auc(neg: list[float], pos: list[float]) -> float:
        neg_arr, pos_arr = np.asarray(neg), np.asarray(pos)
        if not neg_arr.size or not pos_arr.size:
            return float("nan")
        return float(np.mean(neg_arr[:, None] > pos_arr[None, :]))

    rows = []
    for m in measures:
        rows.append(
            (m, round(auc(cross[m], within[m]), 3), round(auc(cross[m], doubled[m]), 3))
        )
    return ExperimentResult(
        table_id="ablation-similarity",
        title=f"Ablation: similarity measure AUCs ({dataset})",
        headers=("Measure", "Semantic AUC", "Width-robustness AUC"),
        rows=tuple(rows),
    )


def run_ablation_markup_noise(
    scale: ExperimentScale = SMOKE, *, dataset: str = "ckg"
) -> ExperimentResult:
    """Robustness to bootstrap markup quality (Sec. III-B).

    The paper's claim is that the method survives markup that "is not
    100% accurate and also absent for the majority of tables".  We
    regenerate the training corpus at three markup-noise levels — clean,
    the profile's default, and a heavily degraded variant — and fit the
    same pipeline on each.  Evaluation uses the standard eval corpus, so
    only the *bootstrap signal quality* varies.
    """
    from dataclasses import replace as dc_replace

    from repro.corpus.generator import GSTGenerator
    from repro.corpus.markup import CLEAN_MARKUP, MarkupNoise
    from repro.corpus.profiles import get_profile

    profile = get_profile(dataset)
    if not profile.has_markup:
        raise ValueError("the markup-noise ablation needs a markup dataset")
    evaluation = eval_corpus_for(dataset, scale)
    base_config = pipeline_config_for(dataset, scale)

    heavy = MarkupNoise(
        drop_thead_prob=0.6,
        demote_deep_hmd_prob=0.7,
        th_to_td_prob=0.35,
        drop_bold_prob=0.7,
        spurious_th_prob=0.08,
        spurious_bold_prob=0.08,
    )
    variants = (
        ("clean markup", CLEAN_MARKUP),
        ("default noise", profile.config.markup_noise),
        ("heavy noise", heavy),
    )
    rows = []
    for label, noise in variants:
        generator_config = dc_replace(profile.config, markup_noise=noise)
        train = GSTGenerator(generator_config, seed=scale.seed).generate(
            scale.n_train, name_prefix=f"{dataset}-noise"
        )
        scores = _fit_and_score(MetadataPipeline(base_config), train, evaluation)
        rows.append(
            (label, scores["hmd1"], scores["hmd_deep"], scores["vmd1"])
        )
    return ExperimentResult(
        table_id="ablation-markup-noise",
        title=f"Ablation: bootstrap markup quality ({dataset})",
        headers=("Markup", "HMD1", "HMD deep (mean 2+)", "VMD1"),
        rows=tuple(rows),
    )


def run_ablation_self_training(
    scale: ExperimentScale = SMOKE, *, dataset: str = "cius"
) -> ExperimentResult:
    """Self-training refinement (our extension; see core/selftrain.py).

    Reported on a markup-free dataset, where the second-generation
    bootstrap has the most to add: the first pass never sees a
    depth-2+ metadata label at all.
    """
    from repro.core.selftrain import refine_self_training
    from repro.experiments.runner import fitted_pipeline

    base = fitted_pipeline(dataset, scale)
    refined = refine_self_training(base, train_corpus_for(dataset, scale))
    evaluation = eval_corpus_for(dataset, scale)

    rows = []
    for label, pipeline in (("base fit", base), ("after self-training", refined)):
        result = evaluate_corpus(evaluation, pipeline.classify)
        deep_vmd = [v for k, v in result.vmd_accuracy.items() if k >= 2]
        rows.append(
            (
                label,
                percent(result.hmd_accuracy.get(1)),
                percent(result.vmd_accuracy.get(1)),
                percent(float(np.mean(deep_vmd))) if deep_vmd else None,
            )
        )
    return ExperimentResult(
        table_id="ablation-self-training",
        title=f"Ablation: self-training refinement ({dataset})",
        headers=("Variant", "HMD1", "VMD1", "VMD deep (mean 2+)"),
        rows=tuple(rows),
    )


def run_ablation_hybrid(
    scale: ExperimentScale = SMOKE, *, dataset: str = "ckg"
) -> ExperimentResult:
    """The Sec. IV-G hybrid: route relational tables to the cheap path."""
    from repro.experiments.runner import fitted_pipeline

    pipeline = fitted_pipeline(dataset, scale)
    evaluation = eval_corpus_for(dataset, scale)
    tables = [item.table for item in evaluation]

    start = time.perf_counter()
    full_result = evaluate_corpus(evaluation, pipeline.classify)
    full_seconds = time.perf_counter() - start

    hybrid = HybridClassifier(pipeline)
    start = time.perf_counter()
    hybrid_result = evaluate_corpus(evaluation, hybrid.classify)
    hybrid_seconds = time.perf_counter() - start

    rows = (
        (
            "full pipeline",
            percent(full_result.hmd_accuracy.get(1)),
            percent(full_result.row_binary_accuracy),
            round(full_seconds / len(tables), 5),
            0,
        ),
        (
            "hybrid",
            percent(hybrid_result.hmd_accuracy.get(1)),
            percent(hybrid_result.row_binary_accuracy),
            round(hybrid_seconds / len(tables), 5),
            hybrid.fast_path_count,
        ),
    )
    return ExperimentResult(
        table_id="ablation-hybrid",
        title=f"Ablation: hybrid routing ({dataset})",
        headers=("Variant", "HMD1", "Row binary", "s/table", "Fast-path tables"),
        rows=rows,
    )
