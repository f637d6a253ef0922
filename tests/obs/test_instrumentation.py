"""The baked-in instrumentation: span trees from real pipeline runs."""

from __future__ import annotations

from repro import obs


def _span_tree(spans):
    """Map span_id -> span and name -> list of parent names."""
    by_id = {s.span_id: s for s in spans}
    parents: dict[str, set] = {}
    for s in spans:
        parent = by_id.get(s.parent_id)
        parents.setdefault(s.name, set()).add(
            parent.name if parent is not None else None
        )
    return by_id, parents


def _fresh_table(tag: str):
    """A table whose tokens no other test has classified, so the row
    cache misses and the classify call resolves them under ``lookup``."""
    from repro.tables.model import Table

    return Table(
        [[f"{tag}probe{i}{j}" for j in range(3)] for i in range(4)],
        name=f"{tag}-fresh",
    )


class TestClassifyInstrumentation:
    def test_classify_root_nests_pipeline_stages(self, hashed_pipeline):
        table = _fresh_table("nest")
        with obs.tracing() as tracer:
            hashed_pipeline.classify(table)
        spans = tracer.spans()
        names = {s.name for s in spans}
        assert {
            "classify", "fused.intern", "fused.pack", "fused.aggregate",
            "lookup", "fused.walk",
        } <= names
        _, parents = _span_tree(spans)
        assert parents["fused.intern"] == {"classify"}
        assert parents["fused.pack"] == {"classify"}
        assert parents["fused.aggregate"] == {"classify"}
        assert parents["lookup"] == {"fused.aggregate"}
        assert parents["fused.walk"] == {"classify"}
        assert parents["classify"] == {None}
        # one trace for the whole classify call
        assert len({s.trace_id for s in spans}) == 1

    def test_classify_span_attributes(self, hashed_pipeline, ckg_eval):
        table = ckg_eval[0].table
        with obs.tracing() as tracer:
            hashed_pipeline.classify(table)
        spans = tracer.spans()
        root = next(s for s in spans if s.name == "classify")
        assert root.attributes["n_tables"] == 1
        assert root.attributes["fused"] is True
        pack = next(s for s in spans if s.name == "fused.pack")
        assert pack.attributes["cells"] > 0
        assert pack.attributes["tokens"] > 0
        aggregate = next(s for s in spans if s.name == "fused.aggregate")
        assert 0 < aggregate.attributes["tokens"] <= pack.attributes["tokens"]

    def test_lookup_span_counts_cache_hits(self, hashed_pipeline):
        table = _fresh_table("lookup")
        with obs.tracing() as tracer:
            hashed_pipeline.classify(table)
        lookup = next(s for s in tracer.spans() if s.name == "lookup")
        attrs = lookup.attributes
        # The row cache only resolves what it lacks: every token is a miss.
        assert attrs["n_tokens"] == attrs["unique"] > 0
        assert attrs["cache_hits"] == 0
        assert attrs["cache_misses"] == attrs["unique"]
        with obs.tracing() as tracer:
            hashed_pipeline.classify(table)  # the row cache is warm now
        assert "lookup" not in {s.name for s in tracer.spans()}


class TestFitInstrumentation:
    def test_fit_span_nests_stages(self, ckg_train):
        from repro.core.pipeline import MetadataPipeline, PipelineConfig
        from repro.corpus.vocabularies import get_domain

        config = PipelineConfig(
            embedding="hashed",
            hashed_fields=get_domain("biomedical").field_map(),
            n_pairs=40,
            use_contrastive=True,
        )
        with obs.tracing() as tracer:
            MetadataPipeline(config).fit(ckg_train[:10])
        spans = tracer.spans()
        names = {s.name for s in spans}
        assert {
            "fit", "fit.embedding", "fit.bootstrap",
            "fit.contrastive", "fit.centroids", "contrastive.fit",
        } <= names
        _, parents = _span_tree(spans)
        assert parents["fit.bootstrap"] == {"fit"}
        assert parents["contrastive.fit"] == {"fit.contrastive"}
        fit = next(s for s in spans if s.name == "fit")
        assert fit.attributes["n_tables"] == 10


class TestStageHookCompose:
    """Regression: installing a second stage hook must not clobber the first."""

    def test_add_stage_hook_composes(self, hashed_pipeline, ckg_eval):
        first: list[str] = []
        second: list[str] = []
        hook_a = lambda stage, seconds: first.append(stage)  # noqa: E731
        hook_b = lambda stage, seconds: second.append(stage)  # noqa: E731
        hashed_pipeline.add_stage_hook(hook_a)
        hashed_pipeline.add_stage_hook(hook_b)
        try:
            hashed_pipeline.classify(ckg_eval[0].table)
        finally:
            hashed_pipeline.remove_stage_hook(hook_a)
            hashed_pipeline.remove_stage_hook(hook_b)
        assert first == second
        assert "classify" in first

    def test_add_is_idempotent(self, hashed_pipeline):
        calls: list[str] = []
        hook = lambda stage, seconds: calls.append(stage)  # noqa: E731
        hashed_pipeline.add_stage_hook(hook)
        hashed_pipeline.add_stage_hook(hook)
        try:
            hashed_pipeline._emit_stage("probe", 0.0)
        finally:
            hashed_pipeline.remove_stage_hook(hook)
        assert calls == ["probe"]
