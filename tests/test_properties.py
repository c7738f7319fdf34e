"""Randomized end-to-end properties over generated presentations."""

import random

from trivext.algebra import (build_algebra, loewy_length, radical_chain,
                             radical_power, trace_form_radical)
from trivext.criteria import (find_two_truncated_cycle, hhdim_verdict,
                              verify_cycle_certificate)
from trivext.dsl import (Presentation, RelationExpr, parse_presentation,
                         serialize_presentation)
from trivext.hochschild import hh_dims
from trivext.linalg import GF, QQ
from trivext.quiver import Arrow, Path, Quiver, compose
from trivext.trivial_extension import check_new_products_vanish, trivial_extension

from reference import non_idempotent_span, paths_up_to_length


def random_monomial_presentation(rng, field=QQ):
    """A random quiver with radical-square-zero-style monomial relations:
    every length-2 path is a relation, so the result is always an
    admissible finite dimensional algebra."""
    n_vertices = rng.randrange(1, 4)
    vertices = [f"v{i}" for i in range(n_vertices)]
    n_arrows = rng.randrange(1, 5)
    arrows = []
    for k in range(n_arrows):
        src = rng.choice(vertices)
        tgt = rng.choice(vertices)
        arrows.append(Arrow(f"a{k}", src, tgt))
    quiver = Quiver(vertices, arrows)
    relations = []
    for a in arrows:
        for b in arrows:
            if a.target == b.source:
                path = Path(a.source, b.target, (a, b))
                relations.append(RelationExpr(((field.one(), path),)))
    return Presentation(quiver=quiver, field=field, relations=tuple(relations))


def test_random_radical_square_zero_algebras_build_and_extend():
    rng = random.Random(20260810)
    for trial in range(25):
        pres = random_monomial_presentation(rng)
        A = build_algebra(pres, label=f"rand{trial}")
        # validate() ran at build; the radical chain must die at length 2
        assert loewy_length(A) <= 2, trial
        rad = radical_power(A, 1)
        assert trace_form_radical(A) == rad == non_idempotent_span(A), trial
        tri = trivial_extension(A)
        assert tri.T.dim == 2 * A.dim
        assert check_new_products_vanish(tri), trial
        # every generated algebra is length-graded over Q, so the extension
        # must always be certified (by a cycle or by the Cartan determinant)
        v = hhdim_verdict(A, extend=True)
        assert v.is_infinite, trial
        if v.cycle is not None:
            assert verify_cycle_certificate(v.algebra, v.cycle), trial


def test_random_presentation_round_trip():
    rng = random.Random(77)
    for _ in range(25):
        pres = random_monomial_presentation(rng)
        assert parse_presentation(serialize_presentation(pres)) == pres


def test_random_round_trip_over_prime_field():
    rng = random.Random(13)
    for _ in range(10):
        pres = random_monomial_presentation(rng, field=GF(7))
        assert parse_presentation(serialize_presentation(pres)) == pres
        A = build_algebra(pres)
        assert A.check_associativity()


def test_compose_associativity_random_paths():
    rng = random.Random(3)
    vertices = ["1", "2", "3"]
    arrows = [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "3", "1"),
              Arrow("d", "1", "1")]
    q = Quiver(vertices, arrows)
    paths = paths_up_to_length(q, 4)
    for _ in range(200):
        p1, p2, p3 = rng.choice(paths), rng.choice(paths), rng.choice(paths)
        if p1.end == p2.start and p2.end == p3.start:
            assert compose(p3, compose(p2, p1)) == compose(compose(p3, p2), p1)


def test_fp_pipeline_end_to_end():
    # the cycle criterion is field-agnostic; the Cartan criterion must stay
    # gated off in positive characteristic
    text = ("field F 5\nvertices 1 2\narrow a : 1 -> 2\narrow b : 2 -> 1\n"
            "relation b*a\nrelation a*b\n")
    A = build_algebra(parse_presentation(text), label="nak2_f5")
    v = hhdim_verdict(A, extend=True)
    assert v.is_infinite
    assert v.certificate_kind == "two_truncated_cycle"
    by_name = {t.criterion: t for t in v.trace}
    assert by_name["graded_cartan_determinant"].outcome == "inconclusive"
    assert "characteristic" in by_name["graded_cartan_determinant"].detail
    # the homology oracle runs exactly mod p as well
    rep = hh_dims(v.algebra, 2)
    assert all(d >= 1 for _n, d in rep.dims)


def test_unicode_arrow_names():
    text = ("field Q\nvertices 1 2\narrow α : 1 -> 2\narrow β : 2 -> 1\n"
            "relation β*α\nrelation α*β\n")
    pres = parse_presentation(text)
    A = build_algebra(pres)
    assert A.dim == 4
    assert parse_presentation(serialize_presentation(pres)) == pres


def test_radical_chain_matches_trace_form_on_random_extensions():
    rng = random.Random(5150)
    for trial in range(8):
        pres = random_monomial_presentation(rng)
        A = build_algebra(pres)
        T = trivial_extension(A).T
        rad = radical_power(T, 1)
        assert trace_form_radical(T) == rad == non_idempotent_span(T), trial
