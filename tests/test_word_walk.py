"""The quotient walk on arrow-index words against the former walk on `Path`s.

`path_layer` lists each layer as start vertices, end vertices and words,
and the builders and `relations_up_to` walk those lists; a `Path` is made
only for A's basis paths and for the terms of T(A)'s relation generators.
The former walk (`reference.path_layer_of_paths`, with the references on
it) must give the same coordinate labels, ideal rows, generators and
quotient dimensions, on the corpus, on seeded presentations graded by
length, by arrow degrees or under a nilpotency bound, and on every input
of the three benchmark workloads.
"""

import random

import pytest

from trivext import algebra
from trivext.algebra import AdmissibilityError, build_algebra
from trivext.dsl import parse_presentation
from trivext.quiver import Path, PathBudgetExceeded, word_labels
from trivext.trivial_extension import relations_up_to, trivial_extension

from reference import (bounded_by_pieces, homogeneous_by_paths,
                       relations_adding_every_kernel_vector)
from test_builder import BOUNDED, graded, random_presentation
from test_generated_inputs import inputs
from test_trivial_extension import seeded_extensions
from prepare import corpus_texts  # bench/ is on sys.path once test_generated_inputs is imported


def bench_presentations():
    """Every input of the three workloads at seed 17, by workload."""
    return {w: [parse_presentation(case.text)
                for case in inputs.workload_cases(w, 17, corpus_texts())]
            for w in inputs.WORKLOADS}


def seeded_presentations():
    """48 seeded presentations over Q, F_3 and F_5, graded by arrow
    degrees, by length, or under nilpotency bounds 2..5, and the bounded
    presentations of `test_builder` under bounds 2..5."""
    rng, out = random.Random(2501), []
    for k in range(48):
        field = ("field Q", "field F 3", "field F 5")[k % 3]
        bound = rng.randint(2, 5) if k % 2 else None
        out.append(random_presentation(rng, k % 4 == 0, field, bound=bound))
    return out + [parse_presentation(text + f"nilpotency_bound {bound}\n")
                  for text in BOUNDED for bound in (2, 3, 4, 5)]


def walked(build, pres, *args):
    """(labels, rows) of a builder's coordinates, or its error type."""
    try:
        out = build(pres, *args)
    except (AdmissibilityError, PathBudgetExceeded) as exc:
        return type(exc)
    if len(out) == 3:
        starts, words, rows = out
        return word_labels(pres.quiver, starts, words), rows
    order, rows = out
    return [p.label() for p in order], rows


def assert_builders_agree(pres):
    """The word builder and the former `Path` builder give the same
    coordinate labels and rows; returns whether the bounded one ran."""
    if graded(pres):
        assert walked(algebra._build_homogeneous, pres, 8) == \
            walked(homogeneous_by_paths, pres, 8)
        return False
    assert walked(algebra._build_bounded, pres) == walked(bounded_by_pieces, pres)
    return True


def test_builders_match_the_path_walk(presentations):
    pres_list = list(presentations.values()) + seeded_presentations()
    pres_list += [p for ps in bench_presentations().values() for p in ps]
    bounded = sum(assert_builders_agree(pres) for pres in pres_list)
    assert bounded >= 20, bounded


def test_relations_match_the_path_walk(extensions):
    # the generators, their Path terms included, the quotient dimension and
    # the completeness flag: at the default cap on the corpus, on seeded
    # T(A) and on the present workload, as `trivext` runs; and at cap 2,
    # where most walks end at the path budget, on the corpus and 6 seeded
    tris = list(extensions.values()) + seeded_extensions(random.Random(2502), 24)
    assert any(tri.T.bound_conditional for tri in tris)
    runs = [(tri, None) for tri in tris] + [(tri, 2) for tri in tris[:len(extensions) + 6]]
    runs += [(trivial_extension(build_algebra(pres)), None)
             for pres in bench_presentations()["present"]]
    outcomes = set()
    for tri, cap in runs:
        got = relations_up_to(tri, cap)
        assert got == relations_adding_every_kernel_vector(tri, cap), tri.T
        outcomes.add((got.complete, got.quotient_dim is None))
    assert outcomes == {(True, False), (False, False), (False, True)}, outcomes


def test_relations_build_a_path_only_per_generator_term(extensions, monkeypatch):
    # the walk itself builds no Path: at most one per term of a generator
    made = 0
    real = Path.__post_init__

    def counted(self):
        nonlocal made
        made += 1
        real(self)

    tris = list(extensions.values()) + seeded_extensions(random.Random(2503), 12)
    for tri in tris:
        with monkeypatch.context() as m:
            m.setattr(Path, "__post_init__", counted)
            made = 0
            rels = relations_up_to(tri)
        terms = sum(len(g.terms) for g in rels.generators)
        assert made <= terms, (tri.T, made, terms)


@pytest.mark.parametrize("text", [
    # a weight-2 arrow next to weight-1 arrows, so a layer grows from two
    # layers below it
    "field Q\nvertices 1 2\narrow a : 1 -> 2 deg 1\narrow b : 2 -> 1 deg 2\n"
    "arrow c : 2 -> 2 deg 1\nrelation c*c\nrelation b*c*a\nrelation a*b\n",
    # vertex names whose string order is not their declared order, and a
    # commutativity relation over F_3 between paths of lengths 3 and 2
    "field F 3\nvertices 10 2 1\narrow a : 10 -> 2 deg 1\narrow b : 2 -> 1 deg 1\n"
    "arrow c : 10 -> 1 deg 2\narrow d : 1 -> 1 deg 1\nrelation d*b*a - 2*d*c\n"
    "relation d*d\n",
])
def test_build_algebra_matches_the_path_walk(text):
    pres = parse_presentation(text)
    assert assert_builders_agree(pres) is False
    A = build_algebra(pres)
    order, rows = homogeneous_by_paths(pres, 256)
    assert A.basis_labels == [p.label() for k, p in enumerate(order) if k not in rows]
