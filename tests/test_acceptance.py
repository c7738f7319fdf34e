"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its assertions hold (run pytest
with -s or look at captured output); every numeric expectation is exact,
and the runtime budgets are asserted with a monotonic clock.
"""

import time

from trivext.algebra import (build_algebra, loewy_length, radical_power,
                             selfinjectivity, SelfinjectivityCertificate,
                             span_products)
from trivext.corpus import (CORPUS, HH_CORROBORATION_CAP, corpus_text,
                            symmetric_form_checks)
from trivext.criteria import (cartan_criterion, find_two_truncated_cycle,
                              graded_cartan, hhdim_verdict,
                              trivial_extension_determinant_shape,
                              verify_cycle_certificate)
from trivext.dsl import parse_presentation
from trivext.hochschild import hh_dims
from trivext.linalg import Echelon, IntPolynomial
from trivext.trivial_extension import check_new_products_vanish, trivial_extension

from reference import boundary_squares_to_zero


def _ok(label):
    print(f"PASS {label}")


LOCAL_INSTANCES = ("semisimple_k", "dual_numbers", "local_two_loops")
SELFINJECTIVE_CYCLIC = ("nakayama_cycle_2", "nakayama_cycle_3")
GRADED_INSTANCES = ("path_a2", "five_vertex_weighted")


def test_criterion_1_local_inputs(algebras):
    for name in LOCAL_INSTANCES:
        A = algebras[name]
        t0 = time.monotonic()
        v = hhdim_verdict(A, extend=True)
        elapsed = time.monotonic() - t0
        assert v.hypotheses["local"], name
        assert v.is_infinite, name
        assert v.certificate_kind == "two_truncated_cycle", name
        assert verify_cycle_certificate(v.algebra, v.cycle), name
        assert elapsed < 1.0, (name, elapsed)
    _ok("criterion 1: local instances certified by 2-truncated cycles (<1s each)")


def test_criterion_2_selfinjective_instances(algebras, extensions):
    for name in SELFINJECTIVE_CYCLIC:
        A = algebras[name]
        tri = extensions[name]
        t0 = time.monotonic()
        cert = selfinjectivity(A)
        assert isinstance(cert, SelfinjectivityCertificate), name
        cycle = find_two_truncated_cycle(tri.T, among=tri.new_arrows)
        elapsed = time.monotonic() - t0
        assert cycle is not None, name
        assert all(tri.T.arrows[i] in tri.new_arrows for i in cycle.arrow_indices), name
        assert verify_cycle_certificate(tri.T, cycle), name
        incoming = {}
        for src, tgt in (tri.T.peirce[k] for k in tri.new_arrows):
            incoming.setdefault(tgt, set()).add(src)
        for i in range(A.num_vertices):
            assert i in incoming, (name, i)
            assert cert.permutation[i] in incoming[i], (name, i)
        assert elapsed < 1.0, (name, elapsed)
    _ok("criterion 2: selfinjective instances, dual-part cycles and the "
        "Nakayama incoming-arrow property (<1s each)")


def test_criterion_3_double_extension_instances(algebras):
    for name in ("dual_numbers", "path_a2"):
        A = algebras[name]
        T = trivial_extension(A).T
        TT = trivial_extension(T).T
        assert TT.dim == 4 * A.dim, name
        cycle = find_two_truncated_cycle(TT)
        assert cycle is not None, name
        assert verify_cycle_certificate(TT, cycle), name
    _ok("criterion 3: double extensions give cycle certificates and "
        "dim T(T(A)) = 4 dim A")


def test_criterion_4_graded_inputs(algebras):
    t0 = time.monotonic()
    for name in GRADED_INSTANCES:
        A = algebras[name]
        tri = trivial_extension(A)
        g = graded_cartan(tri.T)
        rep = trivial_extension_determinant_shape(g)
        assert rep.corner_components_identity, name
        assert rep.offsets_zero_constant_term and rep.offsets_degree_bounded, name
        assert rep.det_constant_term == 1 and rep.det_leading_coefficient == 1
        assert rep.det_degree == rep.expected_degree == g.r * g.top_degree, name
        if name == "five_vertex_weighted":
            assert rep.det_degree == 35  # r(s+1) = 5 * 7
        assert cartan_criterion(g, 0).fires, name
        v = hhdim_verdict(A, extend=True)
        assert v.is_infinite, name
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, elapsed
    _ok("criterion 4: graded instances pass the determinant shape checks and "
        "are certified by the Cartan criterion (<5s)")


def test_criterion_5_exact_cartan_value(algebras):
    A = algebras["path_a2"]
    g = graded_cartan(trivial_extension(A).T)
    # hand cofactor computation: (1+x^2)^2 - x*x = 1 + x^2 + x^4
    assert g.determinant == IntPolynomial((1, 0, 1, 0, 1))
    # at x = 1 this is the ungraded Cartan determinant: det [[2,1],[1,2]] = 3
    assert sum(g.determinant.coeffs) == 3
    counts = [[0, 0], [0, 0]]
    for src, tgt in trivial_extension(A).T.peirce:
        counts[src][tgt] += 1
    ungraded = counts[0][0] * counts[1][1] - counts[0][1] * counts[1][0]
    assert sum(g.determinant.coeffs) == ungraded
    _ok("criterion 5: det C(x) of the extended A2 algebra is exactly "
        "1 + x^2 + x^4 and matches the ungraded determinant at x = 1")


def test_criterion_6_homology_oracle(algebras, extensions):
    t0 = time.monotonic()
    assert [d for _n, d in hh_dims(algebras["dual_numbers"], 4).dims] == \
        [2, 1, 1, 1, 1]
    assert [d for _n, d in hh_dims(algebras["semisimple_k"], 4).dims] == \
        [1, 0, 0, 0, 0]
    assert [d for _n, d in hh_dims(algebras["path_a2"], 3).dims] == [2, 0, 0, 0]
    for name in ("semisimple_k", "dual_numbers", "semisimple_k2", "path_a2"):
        for variant in ("normalized", "full"):
            assert boundary_squares_to_zero(algebras[name], 3, variant), name
    smalls = [A for A in algebras.values() if A.dim <= 4]
    smalls += [tri.T for tri in extensions.values() if tri.T.dim <= 4]
    for B in smalls:
        assert hh_dims(B, 3, variant="normalized").dims == \
            hh_dims(B, 3, variant="full").dims, B.label
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, elapsed
    _ok("criterion 6: oracle values for the dual numbers, the ground field "
        "and A2; boundaries square to zero; variants agree (<30s)")


def test_criterion_7_corroboration(extensions, algebras):
    checked = []
    for name, tri in extensions.items():
        if tri.T.dim <= 8:
            rep = hh_dims(tri.T, 4, cap=HH_CORROBORATION_CAP)
            dims = dict(rep.dims)
            for n in range(1, 5):
                assert dims[n] >= 1, (name, n, dims)
            checked.append(name)
    # the double extensions of dimension <= 8 count as corpus extensions too
    TT = trivial_extension(trivial_extension(algebras["dual_numbers"]).T).T
    assert TT.dim == 8
    dims = dict(hh_dims(TT, 4, cap=HH_CORROBORATION_CAP).dims)
    for n in range(1, 5):
        assert dims[n] >= 1, ("T(T(dual_numbers))", n)
    assert len(checked) >= 6
    _ok("criterion 7: homology corroboration (HH_n >= 1, n = 1..4) for every "
        "extension of dimension <= 8")


def test_criterion_8_structural_invariants(algebras, extensions):
    for name, A in algebras.items():
        tri = extensions[name]
        T = tri.T
        assert A.check_associativity() and T.check_associativity(), name
        assert A.check_peirce() and T.check_peirce(), name
        assert T.dim == 2 * A.dim, name
        f = T.field
        idem = set(A.idempotent_indices)
        expected_rad = Echelon(f, T.dim)
        for k in range(A.dim):
            if k not in idem:
                expected_rad.add({k: f.one()})
        for k in range(A.dim, 2 * A.dim):
            expected_rad.add({k: f.one()})
        rad_T = radical_power(T, 1)
        assert rad_T == expected_rad, name
        rad_A = Echelon(f, T.dim, [{k: f.one()} for k in range(A.dim) if k not in idem])
        da = Echelon(f, T.dim, [{k: f.one()} for k in range(A.dim, 2 * A.dim)])
        lhs = span_products(T, rad_T, rad_T)
        rhs = Echelon(f, T.dim, span_products(T, rad_A, rad_A).rows
                      + span_products(T, rad_A, da).rows
                      + span_products(T, da, rad_A).rows)
        assert lhs == rhs, name
        form = symmetric_form_checks(tri)
        assert all(form.values()), (name, form)
        assert check_new_products_vanish(tri), name
    _ok("criterion 8: associativity, idempotents, dim doubling, radical "
        "decompositions, symmetric form, dual-part products vanish")


def test_criterion_9_negative_controls(algebras, extensions):
    v = hhdim_verdict(algebras["semisimple_k"], extend=False)
    assert v.conclusion == "unknown"
    assert v.certificate_kind is None
    tri = extensions["path_a2"]
    assert find_two_truncated_cycle(tri.T) is None
    assert cartan_criterion(graded_cartan(tri.T), 0).fires
    v = hhdim_verdict(algebras["path_a2"], extend=True)
    assert v.is_infinite and v.certificate_kind == "graded_cartan_determinant"
    _ok("criterion 9: the ground field stays unknown; the extended A2 algebra "
        "is certified by the determinant despite having no cycle")
