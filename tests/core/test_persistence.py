"""Tests for pipeline save/load."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.persistence import (
    PersistenceError,
    load_pipeline,
    save_pipeline,
)
from repro.core.pipeline import MetadataPipeline, PipelineConfig
from repro.corpus.vocabularies import get_domain
from repro.embeddings.contextual import ContextualConfig
from repro.embeddings.ppmi import PpmiConfig
from repro.embeddings.word2vec import Word2VecConfig

#: One small-but-real config per embedding backend, so the round-trip
#: guarantee is checked for every serializable pipeline shape.
BACKEND_CONFIGS = {
    "hashed": PipelineConfig(
        embedding="hashed", hashed_dim=32, n_pairs=100
    ),
    "word2vec": PipelineConfig(
        embedding="word2vec",
        word2vec=Word2VecConfig(dim=16, epochs=1, seed=0),
        n_pairs=100,
    ),
    "ppmi": PipelineConfig(
        embedding="ppmi",
        ppmi=PpmiConfig(dim=16, min_count=1),
        n_pairs=100,
    ),
    "contextual": PipelineConfig(
        embedding="contextual",
        contextual=ContextualConfig(dim=12, attention_dim=6, epochs=1),
        n_pairs=100,
    ),
}


def _assert_same_predictions(a, b, corpus):
    for item in corpus[:10]:
        left = a.classify(item.table)
        right = b.classify(item.table)
        assert left.row_labels == right.row_labels, item.table.name
        assert left.col_labels == right.col_labels, item.table.name


class TestAllBackendsRoundTrip:
    """Identical classification before/after save/load, per backend."""

    @pytest.mark.parametrize("backend", sorted(BACKEND_CONFIGS))
    def test_round_trip_identical_output(
        self, backend, ckg_train, ckg_eval, tmp_path
    ):
        pipeline = MetadataPipeline(BACKEND_CONFIGS[backend]).fit(
            ckg_train[:15]
        )
        path = save_pipeline(pipeline, tmp_path / f"{backend}.npz")
        loaded = load_pipeline(path)
        assert type(loaded.embedder.model).__name__ == type(
            pipeline.embedder.model
        ).__name__
        _assert_same_predictions(pipeline, loaded, ckg_eval)


class TestRoundTrip:
    def test_hashed_backend(self, hashed_pipeline, ckg_eval, tmp_path):
        path = save_pipeline(hashed_pipeline, tmp_path / "model")
        assert path.suffix == ".npz"
        loaded = load_pipeline(path)
        _assert_same_predictions(hashed_pipeline, loaded, ckg_eval)

    def test_word2vec_backend(self, ckg_train, ckg_eval, tmp_path):
        config = PipelineConfig(
            embedding="word2vec",
            word2vec=Word2VecConfig(dim=16, epochs=1, seed=0),
            n_pairs=100,
        )
        pipeline = MetadataPipeline(config).fit(ckg_train[:25])
        path = save_pipeline(pipeline, tmp_path / "w2v.npz")
        loaded = load_pipeline(path)
        _assert_same_predictions(pipeline, loaded, ckg_eval)

    def test_contextual_backend(self, ckg_train, tmp_path):
        config = PipelineConfig(
            embedding="contextual",
            contextual=ContextualConfig(dim=12, attention_dim=6, epochs=1),
            n_pairs=100,
        )
        pipeline = MetadataPipeline(config).fit(ckg_train[:15])
        loaded = load_pipeline(save_pipeline(pipeline, tmp_path / "ctx"))
        table = ckg_train[0].table
        assert pipeline.classify(table).row_labels == loaded.classify(table).row_labels

    def test_projection_restored(self, ckg_train, tmp_path):
        fields = get_domain("biomedical").field_map()
        config = PipelineConfig(
            embedding="hashed", hashed_fields=fields, n_pairs=100
        )
        pipeline = MetadataPipeline(config).fit(ckg_train[:20])
        assert pipeline.projection is not None
        loaded = load_pipeline(save_pipeline(pipeline, tmp_path / "p"))
        assert loaded.projection is not None
        np.testing.assert_allclose(
            loaded.projection.weights, pipeline.projection.weights
        )

    def test_centroids_restored(self, hashed_pipeline, tmp_path):
        loaded = load_pipeline(save_pipeline(hashed_pipeline, tmp_path / "c"))
        original = hashed_pipeline.row_centroids
        restored = loaded.row_centroids
        assert restored.mde == original.mde
        assert restored.de == original.de
        assert restored.mde_de == original.mde_de
        np.testing.assert_allclose(restored.meta_ref, original.meta_ref)
        assert len(restored.level_stats) == len(original.level_stats)


class TestErrors:
    def test_unfitted_save(self, tmp_path):
        with pytest.raises(PersistenceError):
            save_pipeline(MetadataPipeline(), tmp_path / "x")

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_pipeline(tmp_path / "absent.npz")

    def test_corrupt_archive(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(PersistenceError):
            load_pipeline(path)

    def test_wrong_version(self, hashed_pipeline, tmp_path):
        import json

        path = save_pipeline(hashed_pipeline, tmp_path / "v")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "__state__"}
            state = json.loads(bytes(data["__state__"]).decode())
        state["format_version"] = 999
        np.savez(
            path,
            __state__=np.frombuffer(json.dumps(state).encode(), dtype=np.uint8),
            **arrays,
        )
        with pytest.raises(PersistenceError, match="version"):
            load_pipeline(path)


class TestDirectoryStore:
    """The zero-copy directory store: byte-identical to .npz loads."""

    @pytest.mark.parametrize("backend", sorted(BACKEND_CONFIGS))
    def test_npz_and_dir_loads_classify_identically(
        self, backend, ckg_train, ckg_eval, tmp_path
    ):
        from repro.core.persistence import load_pipeline_dir, save_pipeline_dir

        pipeline = MetadataPipeline(BACKEND_CONFIGS[backend]).fit(
            ckg_train[:15]
        )
        npz = save_pipeline(pipeline, tmp_path / f"{backend}.npz")
        store = save_pipeline_dir(pipeline, tmp_path / f"{backend}_dir")
        from_npz = load_pipeline(npz)
        from_dir = load_pipeline_dir(store)
        for item in ckg_eval[:10]:
            left = from_npz.classify(item.table)
            right = from_dir.classify(item.table)
            assert left == right, item.table.name

    def test_load_pipeline_autodetects_directories(
        self, hashed_pipeline, tmp_path
    ):
        from repro.core.persistence import save_pipeline_dir

        store = save_pipeline_dir(hashed_pipeline, tmp_path / "store")
        loaded = load_pipeline(store)
        assert loaded.is_fitted

    def test_mmap_views_by_default(self, hashed_pipeline, tmp_path):
        from repro.core.persistence import load_pipeline_dir, save_pipeline_dir

        store = save_pipeline_dir(hashed_pipeline, tmp_path / "store")
        mapped = load_pipeline_dir(store)
        assert isinstance(mapped.row_centroids.meta_ref, np.memmap)
        eager = load_pipeline_dir(store, mmap=False)
        assert not isinstance(eager.row_centroids.meta_ref, np.memmap)
        np.testing.assert_array_equal(
            np.asarray(mapped.row_centroids.meta_ref),
            eager.row_centroids.meta_ref,
        )

    def test_refuses_to_overwrite_a_file(self, hashed_pipeline, tmp_path):
        from repro.core.persistence import save_pipeline_dir

        target = tmp_path / "occupied"
        target.write_text("something else")
        with pytest.raises(PersistenceError, match="not a directory"):
            save_pipeline_dir(hashed_pipeline, target)


class TestDirectoryStoreCorruption:
    @pytest.fixture
    def store(self, hashed_pipeline, tmp_path):
        from repro.core.persistence import save_pipeline_dir

        return save_pipeline_dir(hashed_pipeline, tmp_path / "store")

    def test_missing_directory(self, tmp_path):
        from repro.core.persistence import load_pipeline_dir

        with pytest.raises(PersistenceError, match="no such model directory"):
            load_pipeline_dir(tmp_path / "absent")

    def test_interrupted_save_has_no_state_file(self, store):
        from repro.core.persistence import load_pipeline_dir

        (store / "state.json").unlink()
        with pytest.raises(PersistenceError, match="state.json"):
            load_pipeline_dir(store)

    def test_malformed_state_json(self, store):
        from repro.core.persistence import load_pipeline_dir

        (store / "state.json").write_text("{broken")
        with pytest.raises(PersistenceError, match="malformed"):
            load_pipeline_dir(store)

    def test_missing_array_file(self, store):
        from repro.core.persistence import load_pipeline_dir

        victim = next(store.glob("*.npy"))
        victim.unlink()
        with pytest.raises(PersistenceError, match="missing array"):
            load_pipeline_dir(store)

    def test_truncated_array_file(self, store):
        from repro.core.persistence import load_pipeline_dir

        victim = next(store.glob("*.npy"))
        victim.write_bytes(b"\x93NUMPY junk")
        with pytest.raises(PersistenceError):
            load_pipeline_dir(store)


#: The classifier keys stores saved before the classify planes merged
#: carry, with the values a default config wrote.
RETIRED_CLASSIFIER_KEYS = {
    "vectorized": True,
    "fused": True,
    "fused_dtype": "float32",
    "fused_quantize": False,
}


def _edit_npz_state(path, edit):
    import json

    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "__state__"}
        state = json.loads(bytes(data["__state__"]).decode())
    edit(state)
    np.savez(
        path,
        __state__=np.frombuffer(json.dumps(state).encode(), dtype=np.uint8),
        **arrays,
    )


def _edit_dir_state(path, edit):
    import json

    state_file = path / "state.json"
    state = json.loads(state_file.read_text())
    edit(state)
    state_file.write_text(json.dumps(state))


@pytest.fixture(params=["npz", "dir"])
def store_form(request, hashed_pipeline, tmp_path):
    """``(path, edit_state)`` for a fresh store in each on-disk form."""
    from repro.core.persistence import save_pipeline_dir

    if request.param == "npz":
        return save_pipeline(hashed_pipeline, tmp_path / "m"), _edit_npz_state
    return save_pipeline_dir(hashed_pipeline, tmp_path / "m"), _edit_dir_state


class TestConfigKeys:
    def test_new_stores_omit_retired_keys(self, store_form):
        import json

        path, _ = store_form
        if path.is_dir():
            state = json.loads((path / "state.json").read_text())
        else:
            with np.load(path) as data:
                state = json.loads(bytes(data["__state__"]).decode())
        assert not set(RETIRED_CLASSIFIER_KEYS) & set(state["classifier"])

    def test_store_with_retired_keys_loads(
        self, store_form, hashed_pipeline, ckg_eval
    ):
        path, edit = store_form
        edit(path, lambda state: state["classifier"].update(RETIRED_CLASSIFIER_KEYS))
        loaded = load_pipeline(path)
        assert loaded.classifier.config == hashed_pipeline.classifier.config
        _assert_same_predictions(hashed_pipeline, loaded, ckg_eval)

    def test_unknown_classifier_key_raises(self, store_form):
        path, edit = store_form
        edit(path, lambda state: state["classifier"].update(beam_width=4))
        with pytest.raises(PersistenceError, match="beam_width"):
            load_pipeline(path)

    def test_unknown_aggregation_key_raises(self, store_form):
        path, edit = store_form
        edit(path, lambda state: state["aggregation"].update(stemming=True))
        with pytest.raises(PersistenceError, match="stemming"):
            load_pipeline(path)
