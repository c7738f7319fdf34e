"""The graded Cartan determinant, the quiver of T(A) and the arrows of A
and T(A) on the corpus and on the inputs the benchmark generates."""

import sys
from collections import Counter
from pathlib import Path

import pytest

import trivext.criteria as criteria
from trivext.algebra import arrows_of, build_algebra, quiver_of
from trivext.criteria import graded_cartan, hhdim_verdict
from trivext.dsl import parse_presentation
from trivext.linalg import GF, QQ, IntPolynomial, poly_det
from trivext.quiver import Arrow
from trivext.trivial_extension import extended_quiver, trivial_extension

from reference import (arrow_records_of_presentation, extension_arrow_records,
                       poly_det_by_polynomial_bareiss)
from test_placed_rows import seeded_presentations

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


def _former_arrows(X, records):
    """The quiver arrows of X that the former arrow records described."""
    names = X.vertex_names
    return [Arrow(r.name, names[r.source], names[r.target], r.degree) for r in records]


def _assert_arrows_match_records(X, records, case):
    """X keeps the basis indices of the records, and reads off its labels,
    Peirce blocks and degrees the arrows the records described, also as
    `quiver_of` finds them."""
    former = _former_arrows(X, records)
    assert X.arrows == [r.basis_index for r in records], case
    assert arrows_of(X, X.arrows) == former, case
    q, reps = quiver_of(X)
    assert dict(zip(reps, q.arrows)) == dict(zip(X.arrows, former)), case


def test_arrows_match_the_former_records():
    # build_algebra and trivial_extension kept each arrow's name,
    # endpoints, degree and newness in a record beside its basis index;
    # they are now read off the basis labels, Peirce blocks and degrees.
    # On the corpus, its T(A), T(T(A)) of dual_numbers and path_a2, seeded
    # presentations and the certify and present inputs at seed 17, they
    # agree with the former records
    texts = [(name, text, 2 if name in ("dual_numbers", "path_a2") else 1)
             for name, text in corpus_texts().items()]
    texts += [(case.id, case.text, 1) for workload in ("certify", "present")
              for case in inputs.workload_cases(workload, 17, corpus_texts())]
    cases = [(case, parse_presentation(text), {}, depth) for case, text, depth in texts]
    cases += [(f"seeded {k}", pres, {"max_weight": 8}, 1)
              for k, pres in enumerate(seeded_presentations(2606, 24))]
    kinds, extensions = Counter(), 0
    for case, pres, kw, depth in cases:
        X = build_algebra(pres, **kw)
        records = arrow_records_of_presentation(pres, X)
        _assert_arrows_match_records(X, records, case)
        kinds[X.field, X.bound_conditional, X.is_graded] += 1
        for _ in range(depth):
            tri = trivial_extension(X)
            records = extension_arrow_records(X, records)
            _assert_arrows_match_records(tri.T, records, case)
            assert tri.new_arrows == [r.basis_index for r in records if r.is_new], case
            assert list(extended_quiver(tri).arrows) == _former_arrows(tri.T, records), case
            X, extensions = tri.T, extensions + 1
    assert {f for f, _, _ in kinds} >= {QQ, GF(3), GF(5)}, kinds
    assert kinds.keys() >= {(QQ, True, False), (QQ, False, True)}, kinds
    assert extensions >= 250, extensions
