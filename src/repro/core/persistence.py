"""Save and load fitted pipelines.

Training takes minutes; classification takes milliseconds — a production
deployment fits once and serves many times.  Two on-disk formats share
one payload layout (named arrays + a JSON state record), and neither
ever pickles:

* ``.npz`` archive (:func:`save_pipeline`) — a single compressed file,
  the portable interchange format;
* directory store (:func:`save_pipeline_dir`) — ``state.json`` plus one
  raw ``.npy`` file per array.  Raw arrays need no decompression and can
  be opened with ``np.load(..., mmap_mode="r")``, so a pool of worker
  processes shares one physical copy of the embedding and projection
  matrices through the OS page cache instead of each inflating its own.

:func:`load_pipeline` auto-detects both (a directory is a directory
store; a file is an ``.npz`` archive), and ``repro convert`` translates
between them.

Supported embedding backends: ``word2vec``, ``ppmi``, ``contextual``,
``hashed``.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.core.angles import AngleRange
from repro.core.centroids import CentroidSet, LevelAngleStats
from repro.core.classifier import ClassifierConfig, MetadataClassifier
from repro.core.contrastive import ContrastiveConfig, ContrastiveProjection
from repro.core.pipeline import MetadataPipeline, PipelineConfig
from repro.embeddings.contextual import ContextualConfig, ContextualEncoder
from repro.embeddings.hashed import HashedEmbedding
from repro.embeddings.lookup import TermEmbedder
from repro.embeddings.ppmi import PpmiConfig, PpmiSvdEmbedding
from repro.embeddings.vocab import Vocabulary
from repro.embeddings.word2vec import Word2Vec, Word2VecConfig

FORMAT_VERSION = 1


class PersistenceError(RuntimeError):
    """Raised on malformed or incompatible archives."""


# ---------------------------------------------------------------------------
# centroid (de)serialization
# ---------------------------------------------------------------------------

def _centroids_to_obj(centroids: CentroidSet) -> dict:
    return {
        "mde": [centroids.mde.lo, centroids.mde.hi],
        "de": [centroids.de.lo, centroids.de.hi],
        "mde_de": [centroids.mde_de.lo, centroids.mde_de.hi],
        "n_tables": centroids.n_tables,
        "level_stats": [
            {
                "level": s.level,
                "delta_prev_meta": s.delta_prev_meta,
                "delta_to_data": s.delta_to_data,
                "n_tables": s.n_tables,
            }
            for s in centroids.level_stats
        ],
    }


def _centroids_from_obj(
    obj: dict, meta_ref: np.ndarray, data_ref: np.ndarray
) -> CentroidSet:
    return CentroidSet(
        mde=AngleRange(*obj["mde"]),
        de=AngleRange(*obj["de"]),
        mde_de=AngleRange(*obj["mde_de"]),
        meta_ref=meta_ref,
        data_ref=data_ref,
        level_stats=tuple(
            LevelAngleStats(
                level=s["level"],
                delta_prev_meta=s["delta_prev_meta"],
                delta_to_data=s["delta_to_data"],
                n_tables=s["n_tables"],
            )
            for s in obj["level_stats"]
        ),
        n_tables=obj["n_tables"],
    )


# ---------------------------------------------------------------------------
# embedding backends
# ---------------------------------------------------------------------------

def _vocab_to_obj(vocab: Vocabulary) -> dict:
    tokens = [vocab.token_of(i) for i in range(len(vocab))]
    counts = {t: vocab.count_of(t) for t in tokens if vocab.count_of(t) > 0}
    return {"tokens": tokens, "counts": counts}


def _vocab_from_obj(obj: dict) -> Vocabulary:
    vocab = Vocabulary(Counter(obj["counts"]))
    # Sanity: id space must match (ordering is deterministic by count).
    if [vocab.token_of(i) for i in range(len(vocab))] != obj["tokens"]:
        raise PersistenceError("vocabulary ordering mismatch on load")
    return vocab


def _require_vocab(model) -> "Vocabulary":
    """A fitted model's vocabulary, or a typed error.

    Not an assert: under ``python -O`` a vocabulary-less model would
    slip through and the archive would fail to load much later.
    """
    vocab = getattr(model, "vocab", None)
    if vocab is None:
        raise PersistenceError(
            f"{type(model).__name__} is fitted but has no vocabulary; "
            "cannot serialize it"
        )
    return vocab


def _save_embedding(model, arrays: dict, state: dict) -> None:
    if isinstance(model, Word2Vec):
        if not model.is_fitted:
            raise PersistenceError("cannot save an unfitted Word2Vec")
        state["embedding_kind"] = "word2vec"
        state["embedding_config"] = model.config.__dict__
        state["vocab"] = _vocab_to_obj(_require_vocab(model))
        arrays["w2v_in"] = model._w_in
        arrays["w2v_out"] = model._w_out
    elif isinstance(model, ContextualEncoder):
        if not model.is_fitted:
            raise PersistenceError("cannot save an unfitted ContextualEncoder")
        state["embedding_kind"] = "contextual"
        state["embedding_config"] = model.config.__dict__
        state["vocab"] = _vocab_to_obj(_require_vocab(model))
        arrays["ctx_emb"] = model._emb
        arrays["ctx_pos"] = model._pos
        arrays["ctx_wq"] = model._wq
        arrays["ctx_wk"] = model._wk
        arrays["ctx_wo"] = model._wo
        arrays["ctx_out"] = model._out
    elif isinstance(model, PpmiSvdEmbedding):
        if not model.is_fitted:
            raise PersistenceError("cannot save an unfitted PpmiSvdEmbedding")
        state["embedding_kind"] = "ppmi"
        state["embedding_config"] = model.config.__dict__
        state["vocab"] = _vocab_to_obj(_require_vocab(model))
        arrays["ppmi_vectors"] = model._vectors
    elif isinstance(model, HashedEmbedding):
        state["embedding_kind"] = "hashed"
        state["embedding_config"] = {
            "dim": model.dim,
            "fields": model._fields,
            "field_weight": model._field_weight,
            "numeric_field": model._numeric_field,
        }
    else:
        raise PersistenceError(
            f"unsupported embedding backend {type(model).__name__}"
        )


def _load_embedding(state: dict, data: np.lib.npyio.NpzFile):
    kind = state["embedding_kind"]
    if kind == "word2vec":
        model = Word2Vec(Word2VecConfig(**state["embedding_config"]))
        model.vocab = _vocab_from_obj(state["vocab"])
        model._w_in = data["w2v_in"]
        model._w_out = data["w2v_out"]
        return model
    if kind == "contextual":
        model = ContextualEncoder(ContextualConfig(**state["embedding_config"]))
        model.vocab = _vocab_from_obj(state["vocab"])
        model._emb = data["ctx_emb"]
        model._pos = data["ctx_pos"]
        model._wq = data["ctx_wq"]
        model._wk = data["ctx_wk"]
        model._wo = data["ctx_wo"]
        model._out = data["ctx_out"]
        return model
    if kind == "ppmi":
        model = PpmiSvdEmbedding(PpmiConfig(**state["embedding_config"]))
        model.vocab = _vocab_from_obj(state["vocab"])
        model._vectors = data["ppmi_vectors"]
        return model
    if kind == "hashed":
        cfg = state["embedding_config"]
        return HashedEmbedding(
            cfg["dim"],
            fields=cfg["fields"],
            field_weight=cfg["field_weight"],
            numeric_field=cfg["numeric_field"],
        )
    raise PersistenceError(f"unknown embedding kind {kind!r}")


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def _pipeline_payload(pipeline: MetadataPipeline) -> tuple[dict, dict]:
    """``(arrays, state)`` — the format-independent payload of a pipeline."""
    if not pipeline.is_fitted:
        raise PersistenceError("cannot save an unfitted pipeline")
    # Explicit (not asserts): these hold for any pipeline that went
    # through fit(), but a hand-assembled pipeline missing a part must
    # fail here with a name, not as an AttributeError mid-serialization
    # — and must keep failing under ``python -O``.
    missing = [
        part
        for part, value in (
            ("embedder", pipeline.embedder),
            ("row_centroids", pipeline.row_centroids),
            ("col_centroids", pipeline.col_centroids),
            ("classifier", pipeline.classifier),
        )
        if value is None
    ]
    if missing:
        raise PersistenceError(
            f"pipeline is missing {', '.join(missing)}; cannot save it"
        )
    if type(pipeline.classifier) is not MetadataClassifier:
        # A store records no level-vector recipe: it always loads onto
        # the sum plane, which would silently relabel a variant's levels.
        raise PersistenceError(
            f"cannot save a {type(pipeline.classifier).__name__}; only the "
            "sum plane's MetadataClassifier can be stored"
        )

    arrays: dict = {
        "row_meta_ref": pipeline.row_centroids.meta_ref,
        "row_data_ref": pipeline.row_centroids.data_ref,
        "col_meta_ref": pipeline.col_centroids.meta_ref,
        "col_data_ref": pipeline.col_centroids.data_ref,
    }
    classifier_config = pipeline.classifier.config
    state: dict = {
        "format_version": FORMAT_VERSION,
        "row_centroids": _centroids_to_obj(pipeline.row_centroids),
        "col_centroids": _centroids_to_obj(pipeline.col_centroids),
        "classifier": {
            "max_hmd_depth": classifier_config.max_hmd_depth,
            "max_vmd_depth": classifier_config.max_vmd_depth,
            "detect_cmd": classifier_config.detect_cmd,
            "range_margin": classifier_config.range_margin,
            "ref_slack": classifier_config.ref_slack,
            "ref_override": classifier_config.ref_override,
        },
        "has_projection": pipeline.projection is not None,
    }
    if pipeline.projection is not None:
        arrays["projection_weights"] = pipeline.projection.weights
        state["projection_config"] = pipeline.projection.config.__dict__

    centering = pipeline.embedder._centering
    if centering is not None:
        arrays["centering"] = centering
    state["has_centering"] = centering is not None

    _save_embedding(pipeline.embedder.model, arrays, state)
    return arrays, state


#: Classifier keys written by stores saved before the classify planes
#: merged into one.  They only chose between planes that give identical
#: labels, so loading drops them.
_RETIRED_CLASSIFIER_KEYS = frozenset(
    {"vectorized", "fused", "fused_dtype", "fused_quantize"}
)

#: Options of the ``aggregation`` section older stores carry, with the
#: values this version still reproduces (``None``: any value).  Every
#: level vector is now the sum of its lowercased terms' vectors, so new
#: stores write no such section.  A stored value listed here loads with
#: the key dropped; any other value raises.  ``mode: "mean"`` loads as
#: sum: a positive per-level scale leaves every angle, and so every
#: label, unchanged.
_RETIRED_AGGREGATION_VALUES: dict[str, tuple | None] = {
    "mode": ("sum", "mean"),
    "concat_terms": None,  # read only by the "concat" mode
    "lowercase": (True,),
    "contextual": (False,),
}


def _config_fields(
    cls: type,
    saved: Mapping,
    section: str,
    *,
    retired: frozenset[str] = frozenset(),
) -> dict:
    """The keyword arguments of a saved config section.

    Retired keys are dropped; any other key the config class does not
    take means the store was written by an incompatible version.
    """
    accepted = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(saved) - accepted - retired)
    if unknown:
        raise PersistenceError(f"unknown {section} config keys {unknown}")
    return {key: value for key, value in saved.items() if key in accepted}


def _check_retired_aggregation(saved: Mapping) -> None:
    """Accept an old store's ``aggregation`` section only when the sum
    plane reproduces it (see :data:`_RETIRED_AGGREGATION_VALUES`)."""
    for key, value in saved.items():
        if key not in _RETIRED_AGGREGATION_VALUES:
            raise PersistenceError(f"unknown aggregation config key {key!r}")
        loadable = _RETIRED_AGGREGATION_VALUES[key]
        if loadable is not None and value not in loadable:
            raise PersistenceError(
                f"store sets the retired aggregation option {key!r} to "
                f"{value!r}; only {list(loadable)!r} can be loaded"
            )


def _assemble_pipeline(state: dict, data: Mapping) -> MetadataPipeline:
    """Rebuild a pipeline from its ``(state, arrays)`` payload.

    ``data`` is any mapping of array name to array — an open
    :class:`~numpy.lib.npyio.NpzFile` or a :class:`_DirArrays` view over
    a directory store.
    """
    if state.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported format version {state.get('format_version')!r}"
        )

    model = _load_embedding(state, data)
    centering = data["centering"] if state["has_centering"] else None  # mmap-backed
    embedder = TermEmbedder(model, centering=centering)
    # Stores written with a packed vocabulary also carry ``packed_kind``
    # and ``packed_rows``/``packed_scales`` arrays.  Those rows were
    # derived from the embedder, so loading ignores them and resolves
    # exact token vectors instead.

    projection = None
    if state["has_projection"]:
        config = ContrastiveConfig(**state["projection_config"])
        # mmap-backed: a directory store hands back read-only views.
        weights = data["projection_weights"]
        projection = ContrastiveProjection(weights.shape[1], config)
        projection.weights = weights

    row_centroids = _centroids_from_obj(
        state["row_centroids"], data["row_meta_ref"], data["row_data_ref"]
    )
    col_centroids = _centroids_from_obj(
        state["col_centroids"], data["col_meta_ref"], data["col_data_ref"]
    )

    _check_retired_aggregation(state.get("aggregation", {}))
    classifier_config = ClassifierConfig(
        **_config_fields(
            ClassifierConfig,
            state["classifier"],
            "classifier",
            retired=_RETIRED_CLASSIFIER_KEYS,
        ),
    )

    pipeline = MetadataPipeline(PipelineConfig())
    pipeline.embedder = embedder
    pipeline.projection = projection
    pipeline.row_centroids = row_centroids
    pipeline.col_centroids = col_centroids
    pipeline.classifier = MetadataClassifier(
        embedder,
        row_centroids,
        col_centroids,
        projection=projection,
        config=classifier_config,
    )
    return pipeline


def save_pipeline(pipeline: MetadataPipeline, path: str | Path) -> Path:
    """Serialize a fitted pipeline to ``path`` (``.npz`` appended if
    missing).  Returns the written path."""
    arrays, state = _pipeline_payload(pipeline)
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    np.savez_compressed(
        path, __state__=np.frombuffer(json.dumps(state).encode(), dtype=np.uint8),
        **arrays,
    )
    return path


#: Name of the JSON state record inside a directory store.
STATE_FILE = "state.json"


class _DirArrays:
    """Lazy array mapping over a directory store.

    Each lookup opens the named ``.npy`` file; with ``mmap`` the result
    is an ``np.memmap`` backed by the OS page cache, so N worker
    processes opening the same model share one physical copy of every
    matrix.
    """

    def __init__(self, root: Path, *, mmap: bool) -> None:
        self._root = root
        self._mode = "r" if mmap else None

    def __getitem__(self, name: str) -> np.ndarray:
        file = self._root / f"{name}.npy"
        if not file.is_file():
            raise PersistenceError(
                f"directory store {self._root} is missing array {name!r} "
                "(partial or corrupted save?)"
            )
        try:
            return np.load(file, mmap_mode=self._mode, allow_pickle=False)
        except ValueError as exc:
            raise PersistenceError(f"cannot read array {file}: {exc}") from exc


def is_pipeline_dir(path: str | Path) -> bool:
    """True when ``path`` looks like a directory store."""
    return (Path(path) / STATE_FILE).is_file()


def save_pipeline_dir(pipeline: MetadataPipeline, path: str | Path) -> Path:
    """Serialize a fitted pipeline as an uncompressed directory store.

    Layout: ``<path>/state.json`` plus one raw ``<name>.npy`` per array.
    Raw ``.npy`` files load without decompression and support
    ``mmap_mode="r"`` — the format :class:`repro.parallel.ShardedPool`
    workers open so the model costs one page-cached copy per machine,
    not one inflated copy per process.  Returns the directory path.
    """
    arrays, state = _pipeline_payload(pipeline)
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise PersistenceError(
            f"{path} exists and is not a directory; refusing to overwrite"
        )
    path.mkdir(parents=True, exist_ok=True)
    # A save over an existing store drops the old state record before
    # the first array is overwritten, and the new one lands last: a
    # crashed save leaves no state record, which load_pipeline_dir
    # rejects instead of serving a mix of the old and the new model.
    (path / STATE_FILE).unlink(missing_ok=True)
    for name, array in arrays.items():
        np.save(path / f"{name}.npy", np.ascontiguousarray(array))
    state["arrays"] = sorted(arrays)
    (path / STATE_FILE).write_text(json.dumps(state, indent=1))
    return path


def load_pipeline_dir(
    path: str | Path, *, mmap: bool = True
) -> MetadataPipeline:
    """Load a directory store written by :func:`save_pipeline_dir`.

    With ``mmap`` (the default) every array is an ``np.memmap`` view —
    nothing is copied at load time, making cold loads cheap and letting
    concurrent processes share pages.  Pass ``mmap=False`` to read the
    arrays into process-private memory instead.
    """
    path = Path(path)
    state_file = path / STATE_FILE
    if not path.is_dir():
        raise PersistenceError(f"no such model directory: {path}")
    if not state_file.is_file():
        raise PersistenceError(
            f"{path} has no {STATE_FILE}; not a pipeline directory store "
            "(or the save was interrupted)"
        )
    try:
        state = json.loads(state_file.read_text())
    except ValueError as exc:
        raise PersistenceError(f"malformed {state_file}: {exc}") from exc
    return _assemble_pipeline(state, _DirArrays(path, mmap=mmap))


def load_pipeline(path: str | Path, *, mmap: bool = True) -> MetadataPipeline:
    """Load a pipeline saved by :func:`save_pipeline` or
    :func:`save_pipeline_dir` (auto-detected by path type).

    ``mmap`` applies to directory stores only; ``.npz`` archives are
    compressed and always decompress into memory.  The returned pipeline
    classifies identically to the saved one; ``fit_report`` and the
    training corpus are not restored.
    """
    path = Path(path)
    if path.is_dir():
        return load_pipeline_dir(path, mmap=mmap)
    if not path.exists():
        raise PersistenceError(f"no such archive: {path}")
    with np.load(path, allow_pickle=False) as data:
        try:
            state = json.loads(bytes(data["__state__"]).decode())
        except KeyError as exc:
            raise PersistenceError("archive has no state record") from exc
        return _assemble_pipeline(state, data)
