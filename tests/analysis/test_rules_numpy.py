"""Fixture tests for the numpy-contract rule family."""

from __future__ import annotations

import textwrap

from repro.analysis import Baseline, lint_source


def _lint(source: str, rule: str, module: str | None = "repro.core.fixture"):
    return [
        f
        for f in lint_source(textwrap.dedent(source), module=module)
        if f.rule == rule
    ]


NP_ARRAY_NO_DTYPE = """
    import numpy as np

    def stack(rows):
        return np.array(rows)
"""


class TestNpArrayDtype:
    def test_positive(self):
        findings = _lint(NP_ARRAY_NO_DTYPE, "np-array-dtype")
        assert len(findings) == 1
        assert "dtype" in findings[0].message

    def test_positive_numpy_alias(self):
        findings = _lint(
            """
            import numpy

            def stack(rows):
                return numpy.array(rows)
            """,
            "np-array-dtype",
        )
        assert len(findings) == 1

    def test_negative_with_dtype(self):
        findings = _lint(
            """
            import numpy as np

            def stack(rows):
                return np.array(rows, dtype=np.float64)
            """,
            "np-array-dtype",
        )
        assert findings == []

    def test_negative_other_constructors(self):
        findings = _lint(
            """
            import numpy as np

            def build(n):
                return np.zeros(n), np.asarray([n]), np.empty(n)
            """,
            "np-array-dtype",
        )
        assert findings == []

    def test_out_of_scope_module_is_clean(self):
        findings = _lint(
            NP_ARRAY_NO_DTYPE, "np-array-dtype", module="repro.serve.service"
        )
        assert findings == []

    def test_embeddings_scope_applies(self):
        findings = _lint(
            NP_ARRAY_NO_DTYPE, "np-array-dtype", module="repro.embeddings.ppmi"
        )
        assert len(findings) == 1

    def test_suppressed(self):
        findings = _lint(
            """
            import numpy as np

            def stack(rows):
                # repro-lint: disable=np-array-dtype - ragged input is
                # intentionally an object array here.
                return np.array(rows)
            """,
            "np-array-dtype",
        )
        assert findings == []

    def test_baselined(self):
        raw = [
            f
            for f in lint_source(
                textwrap.dedent(NP_ARRAY_NO_DTYPE),
                path="fix.py",
                module="repro.core.fixture",
            )
            if f.rule == "np-array-dtype"
        ]
        baseline = Baseline.from_findings(raw)
        fresh, known = baseline.filter(raw)
        assert fresh == [] and len(known) == 1


FLOAT_EQ = """
    def is_unit(score):
        return score == 1.0
"""


class TestFloatEquality:
    def test_positive(self):
        findings = _lint(FLOAT_EQ, "float-equality")
        assert len(findings) == 1

    def test_positive_negative_literal_and_noteq(self):
        findings = _lint(
            """
            def check(x, y):
                return x != -0.5 or -1.5 == y
            """,
            "float-equality",
        )
        assert len(findings) == 2

    def test_negative_int_and_comparison_ops(self):
        findings = _lint(
            """
            def check(x):
                return x == 1 or x >= 0.5 or x < 2.0
            """,
            "float-equality",
        )
        assert findings == []

    def test_negative_isclose(self):
        findings = _lint(
            """
            import numpy as np

            def check(x):
                return np.isclose(x, 1.0)
            """,
            "float-equality",
        )
        assert findings == []

    def test_suppressed(self):
        findings = _lint(
            """
            def is_sentinel(x):
                # repro-lint: disable=float-equality - sentinel is assigned,
                # never computed, so exact comparison is sound.
                return x == -1.0
            """,
            "float-equality",
        )
        assert findings == []

    def test_baselined(self):
        raw = [
            f
            for f in lint_source(
                textwrap.dedent(FLOAT_EQ), path="eq.py", module="repro.core.x"
            )
            if f.rule == "float-equality"
        ]
        baseline = Baseline.from_findings(raw)
        fresh, known = baseline.filter(raw)
        assert fresh == [] and len(known) == 1


SCALAR_LOOP = """
    def embed_all(embedder, terms):
        out = []
        for term in terms:
            out.append(embedder.vector(term))
        return out
"""


class TestScalarEmbedLoop:
    def test_positive_for_loop(self):
        findings = _lint(SCALAR_LOOP, "scalar-embed-loop")
        assert len(findings) == 1
        assert "batch" in findings[0].message

    def test_positive_comprehension(self):
        findings = _lint(
            """
            def embed_all(embedder, terms):
                return [embedder.vector(t) for t in terms]
            """,
            "scalar-embed-loop",
        )
        assert len(findings) == 1

    def test_nested_loop_reports_once(self):
        findings = _lint(
            """
            def embed_tables(embedder, tables):
                out = []
                for table in tables:
                    for term in table:
                        out.append(embedder.vector(term))
                return out
            """,
            "scalar-embed-loop",
        )
        assert len(findings) == 1

    def test_negative_batched(self):
        findings = _lint(
            """
            def embed_all(embedder, terms):
                return embedder.resolve(terms)
            """,
            "scalar-embed-loop",
        )
        assert findings == []

    def test_negative_single_call_outside_loop(self):
        findings = _lint(
            """
            def embed_one(embedder, term):
                return embedder.vector(term)
            """,
            "scalar-embed-loop",
        )
        assert findings == []

    def test_suppressed(self):
        findings = _lint(
            """
            def embed_all(embedder, terms):
                # repro-lint: disable=scalar-embed-loop - backend has no
                # batch API; this is the compatibility fallback.
                return [embedder.vector(t) for t in terms]
            """,
            "scalar-embed-loop",
        )
        assert findings == []

    def test_baselined(self):
        raw = [
            f
            for f in lint_source(
                textwrap.dedent(SCALAR_LOOP),
                path="loop.py",
                module="repro.embeddings.x",
            )
            if f.rule == "scalar-embed-loop"
        ]
        baseline = Baseline.from_findings(raw)
        fresh, known = baseline.filter(raw)
        assert fresh == [] and len(known) == 1
