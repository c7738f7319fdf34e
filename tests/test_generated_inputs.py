"""The graded Cartan determinant and the quiver of T(A) on the corpus and on
the inputs the benchmark generates."""

import sys
from collections import Counter
from pathlib import Path

import pytest

import trivext.criteria as criteria
from trivext.algebra import build_algebra, quiver_of
from trivext.criteria import graded_cartan, hhdim_verdict
from trivext.dsl import parse_presentation
from trivext.linalg import IntPolynomial, poly_det
from trivext.trivial_extension import extended_quiver, trivial_extension

from reference import poly_det_by_polynomial_bareiss

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import inputs  # noqa: E402
from prepare import corpus_texts  # noqa: E402


def _built(workload, seed):
    """(case, A, trivial_extension(A)) for every input of a workload."""
    for case in inputs.workload_cases(workload, seed, corpus_texts()):
        A = build_algebra(parse_presentation(case.text))
        yield case, A, trivial_extension(A)


def _assert_dets_match(B):
    rows = graded_cartan(B).matrix
    assert poly_det(rows) == poly_det_by_polynomial_bareiss(rows), rows


def test_poly_det_matches_the_polynomial_bareiss_on_the_corpus(algebras, extensions):
    graded = [name for name, A in algebras.items() if A.is_graded]
    assert len(graded) >= 6
    for name in graded:
        _assert_dets_match(algebras[name])
        _assert_dets_match(extensions[name].T)


@pytest.mark.parametrize("seed", [0, 17])
def test_poly_det_matches_the_polynomial_bareiss_on_certify_inputs(seed):
    fields = Counter()
    for case, A, tri in _built("certify", seed):
        if A.is_graded:
            _assert_dets_match(A)
            _assert_dets_match(tri.T)
            fields[case.characteristic > 0] += 1
    assert fields[False] >= 20 and fields[True] >= 20


def _arithmetic_inside(monkeypatch, det, algebras):
    """The IntPolynomial products, sums, differences and negations made
    inside `det`, bound as the `poly_det` that `graded_cartan` calls, while
    `hhdim_verdict(A, extend=True)` runs on every graded corpus algebra;
    and the number of calls of `det`."""
    inside, calls, ops = [False], [0], Counter()

    def spy(name, method):
        def counted(*args):
            if inside[0]:
                ops[name] += 1
            return method(*args)
        return counted

    def entered(rows):
        calls[0] += 1
        inside[0] = True
        try:
            return det(rows)
        finally:
            inside[0] = False

    with monkeypatch.context() as m:
        for name in ("__mul__", "__add__", "__sub__", "__neg__"):
            m.setattr(IntPolynomial, name, spy(name, getattr(IntPolynomial, name)))
        m.setattr(criteria, "poly_det", entered)
        for A in algebras.values():
            if A.is_graded:
                assert hhdim_verdict(A, extend=True).cartan is not None
    return ops, calls[0]


def test_poly_det_does_no_polynomial_arithmetic(monkeypatch, algebras):
    # the determinant is one Bareiss elimination over Z; IntPolynomial
    # arithmetic inside it is the former engine coming back
    graded = sum(A.is_graded for A in algebras.values())
    assert _arithmetic_inside(monkeypatch, poly_det, algebras) == (Counter(), graded)
    ops, calls = _arithmetic_inside(monkeypatch, poly_det_by_polynomial_bareiss, algebras)
    assert calls == graded and ops["__mul__"] > 0 and ops["__sub__"] > 0


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_the_quiver_of_every_extension_builds(workload, extensions):
    # T(A)'s arrows are named x* for a basis path x of A, so their names
    # contain '*' and must not be read as the labels of paths
    built = [(tri, None) for tri in extensions.values()]
    built += [(tri, case) for case, _, tri in _built(workload, 17)]
    for tri, case in built:
        assert len(extended_quiver(tri).arrows) == len(tri.T.arrows), case
        assert len(quiver_of(tri.T)[0].arrows) == len(tri.T.arrows), case
