"""Bench: ablations of the paper's design choices (DESIGN.md §5)."""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.experiments import SMOKE
from repro.experiments.ablations import (
    run_ablation_aggregation,
    run_ablation_bootstrap,
    run_ablation_contrastive,
    run_ablation_embedding,
    run_ablation_hybrid,
    run_ablation_markup_noise,
    run_ablation_self_training,
    run_ablation_similarity,
)


def test_bench_ablation_similarity(benchmark, warm_pipelines):
    result = run_once(benchmark, run_ablation_similarity, SMOKE)
    semantic = {row[0]: row[1] for row in result.rows}
    width = {row[0]: row[2] for row in result.rows}
    # Sec. III-C's argument, as two AUCs: the angle must be clearly
    # better than chance semantically AND immune to row-width/magnitude
    # changes; Euclidean fails the width test, Jaccard the semantic one.
    assert semantic["angle"] >= 0.55
    assert width["angle"] >= 0.95
    assert width["angle"] > width["euclidean"]
    assert semantic["angle"] > semantic["jaccard"]
    # The combined (min of both) criterion picks the angle, as the paper
    # argues.
    combined = {m: min(semantic[m], width[m]) for m in semantic}
    assert combined["angle"] == max(combined.values())
    print()
    print(result.render())


def test_bench_ablation_contrastive(benchmark, warm_pipelines):
    result = run_once(benchmark, run_ablation_contrastive, SMOKE)
    scores = {row[0]: row for row in result.rows}
    # Both variants must work; the refinement must not wreck accuracy.
    assert scores["with contrastive"][1] >= 80.0
    assert scores["without contrastive"][1] >= 80.0
    print()
    print(result.render())


def test_bench_ablation_bootstrap(benchmark, warm_pipelines):
    result = run_once(benchmark, run_ablation_bootstrap, SMOKE)
    scores = {row[0]: row for row in result.rows}
    # Markup bootstrap should beat (or match) the blind fallback on the
    # deep levels, where the fallback sees no depth-2+ examples at all.
    html_deep = scores["html markup"][2]
    fallback_deep = scores["first level only"][2]
    assert html_deep is not None and fallback_deep is not None
    assert html_deep >= fallback_deep - 8.0
    print()
    print(result.render())


def test_bench_ablation_embedding(benchmark, warm_pipelines):
    result = run_once(benchmark, run_ablation_embedding, SMOKE)
    rows = {row[0]: row for row in result.rows}
    assert set(rows) == {"word2vec", "ppmi", "contextual", "hashed"}
    assert rows["word2vec"][1] >= 80.0  # the committed default works
    assert rows["ppmi"][1] >= 75.0  # the count-based alternative holds up
    print()
    print(result.render())


def test_bench_ablation_aggregation(benchmark, warm_pipelines):
    result = run_once(benchmark, run_ablation_aggregation, SMOKE)
    rows = {row[0]: row for row in result.rows}
    # Sum and mean differ only in magnitude -> nearly identical scores;
    # both must be usable.  Concat is the costlier rejected alternative,
    # and Sec. III-C's claim is that summation beats it.
    assert rows["sum"][1] >= 80.0
    assert abs(rows["sum"][1] - rows["mean"][1]) <= 10.0
    assert rows["sum"][1] > rows["concat"][1]
    print()
    print(result.render())


def test_bench_ablation_markup_noise(benchmark, warm_pipelines):
    result = run_once(benchmark, run_ablation_markup_noise, SMOKE)
    rows = {row[0]: row for row in result.rows}
    # Sec. III-B's claim: the method survives inaccurate markup.  Level-1
    # accuracy must stay high and deep-level accuracy must degrade
    # gracefully (within 15 points of the clean-markup fit) even under
    # heavy tag corruption.
    for label in ("clean markup", "default noise", "heavy noise"):
        assert rows[label][1] >= 85.0, label
    assert rows["heavy noise"][2] >= rows["clean markup"][2] - 15.0
    print()
    print(result.render())


def test_bench_ablation_self_training(benchmark, warm_pipelines):
    result = run_once(benchmark, run_ablation_self_training, SMOKE)
    rows = {row[0]: row for row in result.rows}
    base, refined = rows["base fit"], rows["after self-training"]
    # The refinement must not damage level 1 and should help (or at
    # least not hurt) the deep VMD levels it was built for.
    assert refined[1] >= base[1] - 2.0
    if base[3] is not None and refined[3] is not None:
        assert refined[3] >= base[3] - 2.0
    print()
    print(result.render())


def test_bench_ablation_hybrid(benchmark, warm_pipelines):
    result = run_once(benchmark, run_ablation_hybrid, SMOKE)
    rows = {row[0]: row for row in result.rows}
    # The hybrid must not be slower than the full pipeline and must keep
    # level-1 accuracy within a few points.
    assert rows["hybrid"][3] <= rows["full pipeline"][3] * 1.2
    assert rows["hybrid"][1] >= rows["full pipeline"][1] - 10.0
    print()
    print(result.render())
