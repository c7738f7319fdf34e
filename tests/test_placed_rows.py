"""Rows placed without elimination, `Echelon.of_reduced` and its callers,
and the rows `Echelon.add` eliminates through `combine`.

`row_reduce` reads the canonical kernel off one elimination, `socles`
takes the bimodule socle as the left kernel intersected with the right,
and `ideal_slice` places its right pushes; each is compared here with
the elimination it replaced (`reference.py`), on the corpus and on seeded
algebras and their trivial extensions over Q, F_3 and F_5.  `add` keeps
a column index of the rows that may use a column, a superset of those
that do; it is compared with the former add, which kept it exact.
"""

import copy
import random
import sys
from collections import Counter

import pytest

import trivext.algebra
import trivext.trivial_extension
from trivext.algebra import (AlgebraBuildError, build_algebra, ideal_slice, socles,
                             trace_form_radical)
from trivext.cli import main
from trivext.corpus import CORPUS, corpus_text, run_corpus
from trivext.linalg import GF, QQ, Echelon, row_reduce
from trivext.quiver import PathBudgetExceeded
from trivext.trivial_extension import relations_up_to, trivial_extension

from reference import (ExactIndexEchelon, ideal_slice_adding_every_push,
                       row_reduce_by_two_eliminations, socles_by_three_kernels)
from test_builder import random_presentation


def seeded_presentations(seed, count):
    """`count` seeded presentations that build, with a T(A) of dimension
    at most 30, over Q, F_3 and F_5 in turn, graded by length, by arrow
    degrees or under a nilpotency bound, from at most 10 presentations
    per result; fails when they do not give `count`."""
    rng, fields, out = random.Random(seed), ["field Q", "field F 3", "field F 5"], []
    for _ in range(10 * count):
        if len(out) == count:
            return out
        pres = random_presentation(rng, rng.random() < 0.5, fields[len(out) % 3],
                                   bound=rng.choice([None, None, 3]))
        try:
            A = build_algebra(pres, max_weight=8)
            if trivial_extension(A).T.dim <= 30:
                out.append(pres)
        except (AlgebraBuildError, PathBudgetExceeded):
            continue
    if len(out) < count:
        pytest.fail(f"{10 * count} seeded presentations gave {len(out)} that build "
                    f"with a T(A) of dimension <= 30, not {count}")
    return out


def test_seeded_presentations_fail_when_every_build_raises(monkeypatch):
    # a fault that refuses every T(A) ends the search with a failure,
    # after the bounded number of presentations, instead of a hang
    tried = 0

    def refuse(A):
        nonlocal tried
        tried += 1
        raise AlgebraBuildError("refused")

    monkeypatch.setattr(sys.modules[__name__], "trivial_extension", refuse)
    with pytest.raises(pytest.fail.Exception, match="30 seeded presentations gave 0 that"):
        seeded_presentations(2121, 3)
    assert 0 < tried <= 30


@pytest.fixture(scope="module")
def inputs(presentations):
    """The corpus and 30 seeded presentations."""
    return list(presentations.values()) + seeded_presentations(2121, 30)


def fresh_algebras(pres_list):
    """Each presentation's A and T(A), built anew so that nothing they
    derive is stored yet."""
    out = []
    for pres in pres_list:
        A = build_algebra(pres)
        out += [A, trivial_extension(A).T]
    return out


def state(E):
    """What an Echelon holds: its rows by pivot, each checked to lead with
    1 at its pivot, each pivot column checked to be zero in every other
    row, and the column index checked to list every row that uses a
    column (it may list more)."""
    assert E.pivots == sorted(E.pivots) and len(set(E.pivots)) == E.rank
    assert all(E._row_at[p] is row and min(row) == p and row[p] == 1
               for p, row in zip(E.pivots, E.rows))
    pivots = set(E.pivots)
    for p, row in zip(E.pivots, E.rows):
        assert row.keys() & pivots == {p}
        assert all(p in E._holders.get(k, ()) for k in row if k != p)
    return E.field, E.width, E.pivots, E.rows


def test_of_reduced_builds_the_indexes_elimination_builds():
    for field in (QQ, GF(3), GF(5)):
        rng = random.Random(field.p)
        for _ in range(40):
            width = rng.randint(1, 9)
            vecs = [{k: rng.randint(-4, 4) for k in rng.sample(range(width), rng.randint(1, width))}
                    for _ in range(rng.randint(0, 6))]
            built = Echelon(field, width, vecs)
            placed = Echelon.of_reduced(field, width, [dict(r) for r in built.rows])
            assert state(placed) == state(built)
            copied = built.copy()
            assert state(copied) == state(built)
            extra = {k: 1 for k in range(width)}
            copied.add(extra)
            placed.add(extra)
            assert state(copied) == state(placed)
            assert not any(a is b for a, b in zip(built.rows, copied.rows))
    assert Echelon.of_reduced(QQ, 3, []) == Echelon(QQ, 3)


def test_row_reduce_matches_two_eliminations(inputs, monkeypatch):
    # every map the program hands to row_reduce (the socle annihilators,
    # their intersection, the relation slice kernels and the trace-form
    # radical) against the former two eliminations; and random maps with
    # gaps in their keys and zero entries
    calls = []

    def spy(field, images):
        got = row_reduce(field, images)
        assert got == row_reduce_by_two_eliminations(field, images)
        calls.append((field.p, got.rank))
        return got

    for module in (trivext.algebra, trivext.trivial_extension):
        monkeypatch.setattr(module, "row_reduce", spy)
    for X in fresh_algebras(inputs):
        socles(X)
        if X.field == QQ:
            trace_form_radical(X)
    for pres in inputs:
        relations_up_to(trivial_extension(build_algebra(pres)))
    assert {p for p, _ in calls} == {0, 3, 5}
    assert sum(rank > 1 for _, rank in calls) >= 100
    rng = random.Random(21)
    for field in (QQ, GF(3), GF(5)):
        for _ in range(60):
            keys = sorted(rng.sample(range(12), rng.randint(1, 8)))
            images = {k: {r: rng.randint(-3, 3) for r in rng.sample(range(6), rng.randint(0, 4))}
                      for k in keys}
            assert row_reduce(field, images) == row_reduce_by_two_eliminations(field, images)


def test_socles_match_three_kernels(inputs):
    # the bimodule socle as the left kernel met with the right one, against
    # the former third kernel over all of A.  Taking the intersection
    # against the left map again would return the whole left kernel,
    # which differs from the bimodule socle on many of these inputs
    proper = 0
    for X in fresh_algebras(inputs):
        got = socles(X)
        assert got == socles_by_three_kernels(X), X
        proper += sum(s.rank for s in got.left) > got.bimodule.rank
    assert proper >= 20, proper


def test_ideal_slice_matches_adding_every_push(inputs, monkeypatch):
    # every slice that kQ/I and the relation search of T(A) walk, against
    # adding every right and left push
    seen = {"slices": 0, "placed": 0, "added": 0}

    def spy(field, width, pieces):
        got = ideal_slice(field, width, pieces)
        assert got == ideal_slice_adding_every_push(field, width, pieces)
        seen["slices"] += 1
        right = [v for ideal, r, _l in pieces for row in ideal.rows
                 for v in [{r[k] for k in row if k in r}] if v]
        seen["placed"] += len(right)
        seen["added"] += got.rank > len(right)
        return got

    monkeypatch.setattr(trivext.algebra, "ideal_slice", spy)
    fields = set()
    for pres in inputs:
        A = build_algebra(pres)
        relations_up_to(trivial_extension(A))
        fields.add(A.field)
    assert fields == {QQ, GF(3), GF(5)}
    assert seen["slices"] >= 300 and seen["placed"] >= 300 and seen["added"] >= 50, seen


@pytest.mark.parametrize("side", ["right", "left"])
def test_a_row_pushed_in_part_raises(side):
    # rows of an ideal slice lie in one Peirce block, so an arrow extends
    # all of a row's paths or none; a row it extends in part is not
    # dropped but refused
    slice_ = Echelon(QQ, 3, [{0: 1, 1: 2}, {2: 1}])
    partial, whole = {0: 0}, {0: 0, 1: 1, 2: 2}
    maps = (partial, whole) if side == "right" else (whole, partial)
    with pytest.raises(AlgebraBuildError, match="does and does not extend"):
        ideal_slice(QQ, 3, [(slice_, *maps)])
    # a row a map drops whole is dropped
    assert ideal_slice(QQ, 3, [(slice_, {2: 2}, {2: 0})]) == Echelon(QQ, 3, [{0: 1}, {2: 1}])


def test_a_full_slice_adds_no_push_but_checks_every_row(monkeypatch):
    # once the right pushes fill the slice, the left pushes are not added,
    # as the reduced echelon basis of the whole space is the identity;
    # each is still made, so a row pushed in part still raises
    full = Echelon(QQ, 2, [{0: 1}, {1: 1}])
    rows = Echelon(QQ, 2, [{0: 1, 1: 2}])
    adds = []
    real_add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda E, vec: adds.append(vec) or real_add(E, vec))
    got = ideal_slice(QQ, 2, [(full, {0: 0, 1: 1}, {0: 1, 1: 0}), (rows, {}, {0: 0, 1: 1})])
    assert (got, adds) == (full, [])
    with pytest.raises(AlgebraBuildError, match="does and does not extend"):
        ideal_slice(QQ, 2, [(full, {0: 0, 1: 1}, {}), (rows, {}, {0: 0})])
    # below full rank the left pushes are added
    ideal_slice(QQ, 2, [(rows, {}, {0: 1, 1: 0})])
    assert adds == [{1: 1, 0: 2}]


def run_corpus_and_reports(tmp_path, capsys):
    """A corpus run, and the `trivext` and `verdict --extend` reports of
    every corpus file."""
    assert run_corpus()["ok"]
    for e in CORPUS:
        f = tmp_path / f"{e.name}.quiver"
        f.write_text(corpus_text(e.name))
        for argv in (["trivext", str(f)], ["verdict", str(f), "--extend"]):
            main(argv)
    capsys.readouterr()


def test_placed_echelons_match_elimination_during_a_corpus_run(monkeypatch, tmp_path,
                                                                capsys, inputs):
    # every Echelon placed by `of_reduced` in a corpus run, in the CLI
    # reports of every corpus file and in fresh builds of the seeded inputs
    # is re-eliminated from its rows, and each further add is mirrored on
    # the re-eliminated twin; the two must agree at every step
    placed_by = Echelon.__dict__["of_reduced"].__func__
    add = Echelon.add
    twins: dict = {}
    counts = {"placed": 0, "adds": 0}

    def spy_of_reduced(cls, field, width, rows):
        rows = list(rows)
        twin = Echelon(field, width, [dict(row) for row in rows])
        out = placed_by(cls, field, width, rows)
        assert state(out) == state(twin)
        twins[id(out)] = out, twin
        counts["placed"] += 1
        return out

    def spy_add(self, vec):
        got = add(self, vec)
        pair = twins.get(id(self))
        if pair is not None and pair[0] is self:
            assert add(pair[1], copy.deepcopy(vec)) == got
            assert state(self) == state(pair[1])
            counts["adds"] += 1
        return got

    monkeypatch.setattr(Echelon, "of_reduced", classmethod(spy_of_reduced))
    monkeypatch.setattr(Echelon, "add", spy_add)
    run_corpus_and_reports(tmp_path, capsys)
    fresh_algebras(inputs[len(CORPUS):])
    assert counts["placed"] >= 400 and counts["adds"] >= 150, counts


def ordered(E):
    """The rows of E with their keys in insertion order, which the rows
    of the reports follow."""
    return E.pivots, [list(row.items()) for row in E.rows]


def stale(E, twin) -> bool:
    """True iff E's column index lists a row that its exact twin's does not."""
    return any(ps - twin._holders.get(k, set()) for k, ps in E._holders.items())


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=repr)
def test_add_matches_the_exact_index_add(field):
    # random rows, dense enough that clearing a pivot both drops entries
    # of the cleared rows (leaving stale index entries) and adds new ones
    rng, seen = random.Random(2200 + field.p), Counter()
    for _ in range(80):
        width = rng.randint(1, 12)
        got, want = Echelon(field, width), ExactIndexEchelon(field, width)
        for _ in range(rng.randint(1, 14)):
            vec = {k: rng.randint(-4, 4)
                   for k in rng.sample(range(width), rng.randint(1, min(width, 5)))}
            assert got.add(vec) == want.add(vec)
            assert state(got) == state(want) and ordered(got) == ordered(want)
            seen["stale"] += stale(got, want)
            seen["scaled"] += any(x != 1 for x in vec.values())
    assert seen["stale"] >= 50 and seen["scaled"] >= 50, seen


def test_add_matches_the_exact_index_add_during_a_corpus_run(monkeypatch, tmp_path, capsys):
    # every add to every Echelon of a corpus run and of the CLI reports of
    # every corpus file is mirrored on a twin with the former exact index,
    # placed from the rows the Echelon holds at its first add; rows, their
    # key order and pivots must agree after each add
    add, twins, counts = Echelon.add, {}, Counter()

    def spy_add(self, vec):
        if id(self) not in twins:  # each Echelon is kept, so its id is not reused
            twins[id(self)] = self, ExactIndexEchelon.of_reduced(
                self.field, self.width, [dict(row) for row in self.rows])
        twin = twins[id(self)][1]
        got = add(self, vec)
        assert twin.add(copy.deepcopy(vec)) == got
        assert state(self) == state(twin) and ordered(self) == ordered(twin)
        counts["adds"] += 1
        return got

    monkeypatch.setattr(Echelon, "add", spy_add)
    run_corpus_and_reports(tmp_path, capsys)
    assert counts["adds"] >= 1000, counts
