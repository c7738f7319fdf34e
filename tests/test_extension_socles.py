"""The socles of T(A), read off its construction.

`trivial_extension` marks T as A ⋉ DA, and `socles(T)` then places
left[i] = right[i] = span(e_i*) and the bimodule socle span(e_v*), with
no elimination, when rad A is the span of A's non-idempotent basis
vectors; otherwise, and on every copy of T, it eliminates as for any
algebra.  Each result is compared here with the three kernels of
`reference.socles_by_three_kernels`.
"""

import copy
import pickle
import random
from collections import Counter

import pytest

import trivext.algebra
from trivext.algebra import (FDAlgebra, build_algebra,
                             radical_chain, selfinjectivity, socles)
from trivext.cli import main
from trivext.corpus import CORPUS, corpus_text
from trivext.dsl import parse_presentation
from trivext.linalg import QQ
from trivext.trivial_extension import trivial_extension

from reference import socles_by_three_kernels
from test_generated_inputs import _built, inputs
from test_trivial_extension import seeded_extensions


def annihilator_calls(monkeypatch):
    """A Counter of the algebras `_annihilator` is called for, from now on."""
    calls = Counter()
    real = trivext.algebra._annihilator

    def spy(A, side):
        calls[id(A)] += 1
        return real(A, side)

    monkeypatch.setattr(trivext.algebra, "_annihilator", spy)
    return calls


def assert_stored(tri, monkeypatch):
    """socles(T) is placed with no kernel, equals the three kernels, and
    equals what an unmarked copy of T eliminates."""
    T = tri.T
    T._derived.pop("socles", None)
    calls = annihilator_calls(monkeypatch)
    got = socles(T)
    assert calls[id(T)] == 0, T
    assert got == socles_by_three_kernels(T), T
    assert got == socles(copy.copy(T)), T
    d = tri.base.dim
    assert [s.pivots for s in got.left] == [[d + e] for e in tri.base.idempotent_indices]
    monkeypatch.undo()


def test_stored_socles_match_three_kernels(extensions, monkeypatch):
    # every corpus T(A), 24 seeded T(A) over Q, F_3 and F_5 (some built
    # under a nilpotency bound), their trivial extensions T(T(A)), and
    # every T(A) of the three benchmark workloads at seed 17
    tris = list(extensions.values()) + seeded_extensions(random.Random(2525), 24)
    assert {tri.T.field.characteristic for tri in tris} == {0, 3, 5}
    assert any(tri.T.bound_conditional for tri in tris)
    tris += [trivial_extension(tri.T) for tri in tris[:12]]
    for tri in tris:
        assert_stored(tri, monkeypatch)
    benched = 0
    for workload in inputs.WORKLOADS:
        for _case, _A, tri in _built(workload, 17):
            assert_stored(tri, monkeypatch)
            benched += 1
    assert benched == 312


def test_selfinjectivity_reads_the_stored_socles(extensions, monkeypatch):
    # T(A) is symmetric: its Nakayama permutation is the identity, read
    # off the stored right socles as it is off the eliminated ones
    for tri in extensions.values():
        T = tri.T
        T._derived.pop("socles", None)
        T._derived.pop("selfinjectivity", None)
        calls = annihilator_calls(monkeypatch)
        cert = selfinjectivity(T)
        assert calls[id(T)] == 0
        assert cert.permutation == tuple(range(T.num_vertices))
        assert selfinjectivity(copy.copy(T)) == cert
        monkeypatch.undo()


def cubic_with_shifted_square():
    """k[x]/(x^3) on the basis e, x, w = x^2 + e: the basis vector w is
    not in the radical, which is the span of x and w - e."""
    one = 1
    table = [[{0: one}, {1: one}, {2: one}],
             [{1: one}, {0: -1, 2: one}, {1: one}],
             [{2: one}, {1: one}, {0: -1, 2: 2}]]
    A = FDAlgebra(field=QQ, labels=["e_v", "x", "w"], vertex_names=["v"],
                  idempotent_indices=[0], peirce=[(0, 0)] * 3, table=table,
                  arrows=[1])
    A.validate()
    return A


def test_a_non_radical_basis_vector_takes_the_elimination(monkeypatch):
    # when rad A is not the span of the non-idempotent basis vectors the
    # e_v* are not the socle of T(A), and socles(T) eliminates
    A = cubic_with_shifted_square()
    assert radical_chain(A)[1].rows == [{0: 1, 2: -1}, {1: 1}]
    T = trivial_extension(A).T
    calls = annihilator_calls(monkeypatch)
    got = socles(T)
    assert calls[id(T)] == 2
    assert got == socles_by_three_kernels(T)
    # the e_v* would be wrong here: the socle is spanned by e* + w*
    assert got.bimodule.rows == [{3: 1, 5: 1}]


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda T: pickle.loads(pickle.dumps(T))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_do_not_carry_the_mark(duplicate, monkeypatch):
    # a copy of T(A) whose table is then edited is not A ⋉ DA, so it must
    # eliminate; the original keeps its mark
    pres = parse_presentation(corpus_text("nakayama_cycle_3"))
    T = trivial_extension(build_algebra(pres)).T
    Y = duplicate(T)
    calls = annihilator_calls(monkeypatch)
    assert socles(Y) == socles_by_three_kernels(Y)
    assert calls[id(Y)] == 2
    assert socles(T) == socles(Y) and calls[id(T)] == 0
    # an edited copy gets its own socles: with every product zeroed, all
    # of it is socle, where a copy that kept the mark would report the e_v*
    Z = duplicate(T)
    Z.table = [[{} for _ in row] for row in Z.table]
    assert socles(Z).bimodule.rank == Z.dim


def test_trivext_runs_no_kernel_for_an_extension(capsys, monkeypatch, tmp_path):
    # `trivext` on every corpus file derives the socles of A by its two
    # kernels and those of T(A) with none
    seen = []
    real = trivext.algebra._annihilator

    def spy(A, side):
        # the new arrows of a T(A) are named x* for a basis path x of A
        seen.append(any(A.basis_labels[g].endswith("*") for g in A.arrows))
        return real(A, side)

    monkeypatch.setattr(trivext.algebra, "_annihilator", spy)
    for entry in CORPUS:
        path = tmp_path / f"{entry.name}.quiver"
        path.write_text(corpus_text(entry.name))
        assert main(["trivext", str(path)]) == 0, entry.name
    capsys.readouterr()
    assert seen and not any(seen), seen
    assert len(seen) == 2 * len(CORPUS)
