"""The structural checks behind `FDAlgebra.validate` and
`validate_extension`, against perturbed structure tables, an all-triples
reference for associativity, and the former slot-by-slot table reads."""

import copy
from collections import Counter
from itertools import product

import pytest

from trivext.algebra import AlgebraBuildError, FDAlgebra, _generation_by_reads, arrow_layers
from trivext.criteria import find_two_truncated_cycle
from trivext.linalg import QQ, Echelon
from trivext.trivial_extension import (_is_extension_table, trivial_extension,
                                       validate_extension)

from reference import (arrow_layers_by_every_product, associativity_by_slots,
                       generation_by_layer_walk, graded_products_by_slots,
                       is_extension_table_by_slots, peirce_by_sandwiches,
                       peirce_by_slots)
from test_algebra import arrow_prefix_inputs, arrow_prefixes, seeded_algebras

SMALL = ["semisimple_k", "dual_numbers", "local_two_loops", "semisimple_k2",
         "nakayama_cycle_2", "nakayama_cycle_3", "path_a2"]  # dim T(A) <= 16


def associative_on_all_triples(X) -> bool:
    """Reference: (b_i b_j) b_k == b_i (b_j b_k) on all d^3 basis triples."""
    for i in range(X.dim):
        ei = X.basis_element(i)
        for j in range(X.dim):
            left = X.table[i][j]
            for k in range(X.dim):
                lhs = X.multiply(left, X.basis_element(k))
                rhs = X.multiply(ei, X.table[j][k])
                if lhs != rhs:
                    return False
    return True


def perturbed(X, i, j, k):
    """A copy of X with 1 added to coordinate k of b_i * b_j."""
    f = X.field
    Y = copy.copy(X)
    Y.table = [list(row) for row in X.table]
    entry = dict(X.table[i][j])
    value = f.add(entry.get(k, f.zero()), f.one())
    if value:
        entry[k] = value
    else:
        del entry[k]
    Y.table[i][j] = entry
    return Y


def dropped_entries(X):
    """((i, j, k), copy of X whose b_i * b_j leaves out its term at b_k)
    for every nonzero entry of X's table."""
    for i, j in product(range(X.dim), repeat=2):
        for k in X.table[i][j]:
            Y = copy.copy(X)
            Y.table = [list(row) for row in X.table]
            Y.table[i][j] = {l: c for l, c in X.table[i][j].items() if l != k}
            yield (i, j, k), Y


def small_algebras(algebras, extensions):
    for name in SMALL:
        yield name, algebras[name]
        yield f"T({name})", extensions[name].T


def test_small_corpus_selection(extensions):
    assert sorted(SMALL) == sorted(n for n, tri in extensions.items()
                                   if tri.T.dim <= 16)


def accepted(X) -> bool:
    try:
        X.validate()
    except AlgebraBuildError:
        return False
    return True


def test_validate_agrees_with_references_on_every_perturbation(algebras, extensions):
    # validate proves associativity from arrow triples after a block read;
    # the references multiply out the Peirce sandwiches and all triples.
    # Without the block read the arrow triples accept 6 wrong tables of
    # T(nakayama_cycle_3) alone, which a random sample can miss, so every
    # perturbation is tried.
    outcomes = []
    for name, X in small_algebras(algebras, extensions):
        assert accepted(X) and associative_on_all_triples(X), name
        for i, j, k in product(range(X.dim), repeat=3):
            Y = perturbed(X, i, j, k)
            want = (peirce_by_sandwiches(Y) and generation_by_layer_walk(Y)
                    and associative_on_all_triples(Y) and Y.check_graded_products())
            assert accepted(Y) == want, (name, i, j, k)
            outcomes.append(want)
    assert len(outcomes) == 3159
    # both verdicts occur, so the agreement is not vacuous
    assert outcomes.count(True) and outcomes.count(False)


def test_perturbation_at_non_generator_pair_is_caught(extensions):
    # e_v* is no generator of T(dual_numbers), and e_v* * e_v* = 0 because
    # DA * DA = 0; the generator triples never read that entry directly
    T = extensions["dual_numbers"].T
    e_star = T.basis_labels.index("e_v*")
    gens = set(T.idempotent_indices) | set(T.arrows)
    assert e_star not in gens and T.table[e_star][e_star] == {}
    for k in range(T.dim):
        Y = perturbed(T, e_star, e_star, k)
        assert not associative_on_all_triples(Y)
        assert not Y.check_associativity(), T.basis_labels[k]


def test_peirce_lookups_agree_with_sandwich_reference(algebras, extensions):
    # every single-coordinate perturbation of every small algebra
    outcomes = []
    for name, X in small_algebras(algebras, extensions):
        for i, j, k in product(range(X.dim), repeat=3):
            Y = perturbed(X, i, j, k)
            want = peirce_by_sandwiches(Y)
            assert Y.check_peirce() == want, (name, i, j, k)
            outcomes.append(want)
    assert len(outcomes) == 3159
    # both verdicts occur: only entries with an idempotent factor are read
    assert outcomes.count(True) and outcomes.count(False)


def test_idempotent_check_catches_perturbation(algebras):
    A = algebras["dual_numbers"]
    e = A.idempotent_indices[0]
    assert A.check_peirce()
    assert not perturbed(A, e, e, e).check_peirce()  # e * e = 2 e


def test_peirce_check_catches_perturbation(algebras):
    A = algebras["path_a2"]
    a = A.basis_labels.index("a")
    e2 = A.basis_labels.index("e_2")
    assert A.check_peirce()
    # a = e_2 a e_1, so a * e_2 must vanish
    assert not perturbed(A, a, e2, a).check_peirce()


def test_an_arrow_edited_into_a_loop_fails_validation(extensions):
    # an arrow's endpoints are its Peirce block, which validate checks: a
    # copy of T(path_a2) whose arrow a is edited into a loop is refused.
    # When a record kept the endpoints beside the block, editing the
    # record passed validate and the cycle search certified [a]
    T = copy.copy(extensions["path_a2"].T)
    a = T.basis_labels.index("a")
    assert a in T.arrows and find_two_truncated_cycle(T) is None
    T.peirce = list(T.peirce)
    T.peirce[a] = (T.peirce[a][0],) * 2
    assert find_two_truncated_cycle(T).arrow_names == ["a"]
    with pytest.raises(AlgebraBuildError, match="Peirce"):
        T.validate()
    with pytest.raises(AlgebraBuildError, match="Peirce"):
        validate_extension(extensions["path_a2"].base, T)


def degree_two_tail(products):
    """The algebra over Q on e, x, y, p, q with one vertex, arrows x and y,
    p and q in degree 2, the products of two arrows given as
    {(i, j): b_i b_j}, and every other product of two radical elements
    zero."""
    one = QQ.one()
    table = [[{} for _ in range(5)] for _ in range(5)]
    for k in range(5):
        table[0][k] = table[k][0] = {k: one}
    for (i, j), prod in products.items():
        table[i][j] = {k: QQ.coerce(c) for k, c in prod.items()}
    return FDAlgebra(QQ, ["e", "x", "y", "p", "q"], ["v"], [0], [(0, 0)] * 5,
                     table, [1, 2], degrees=[0, 1, 1, 2, 2])


def two_term_squares():
    """k<x,y>/(x², y², xyx, yxy) on the degree-2 basis p = yx + xy and
    q = yx - xy: each product of two arrows has both p and q in its
    support, so the table reads reach e, x and y only, yet the arrows
    generate."""
    return degree_two_tail({(1, 2): {3: (1, 2), 4: (-1, 2)},   # xy = (p - q) / 2
                            (2, 1): {3: (1, 2), 4: (1, 2)}})   # yx = (p + q) / 2


def one_sum_in_degree_two():
    """x² = yx = p + q, and xy = y² = 0: the arrows generate e, x, y and
    p + q, not all of it, though a read that took one of p, q from the
    first product would take the other from the second."""
    return degree_two_tail({(1, 1): {3: 1, 4: 1}, (2, 1): {3: 1, 4: 1}})


def test_generation_by_reads_agrees_with_the_layer_walk(algebras, extensions):
    # check_generation against the former walk: on the arrow prefixes,
    # where proper subalgebras make the reads fail and the walk say False;
    # on every perturbation of the small A and T(A) and every fill of them
    # with one nonzero entry left out; on an algebra the reads cannot
    # prove generated; and on one that the arrows do not generate, where
    # every product of two arrows is a sum of two basis elements.  The
    # reads close only where the walk says True.
    # Mutants each fails: no fallback on the walk; a product with two
    # unreached terms accepted; R seeded with the arrows as well
    seen = Counter()

    def agree(Y, kind, at):
        want = generation_by_layer_walk(Y)
        by_reads = _generation_by_reads(Y)
        assert Y.check_generation() == want, (kind, at)
        assert want or not by_reads, (kind, at)
        seen[kind, want, by_reads] += 1

    for X in arrow_prefix_inputs(algebras, extensions, seeded_algebras()):
        for n, Y in arrow_prefixes(X):
            agree(Y, "prefix", (X, n))
    for name, X in small_algebras(algebras, extensions):
        for i, j, k in product(range(X.dim), repeat=3):
            agree(perturbed(X, i, j, k), "perturbed", (name, i, j, k))
        for at, Y in dropped_entries(X):
            agree(Y, "dropped", (name, at))
    X, Y = two_term_squares(), one_sum_in_degree_two()
    assert accepted(X) and associative_on_all_triples(X)
    assert associative_on_all_triples(Y) and Y.check_peirce() and Y.check_graded_products()
    agree(Y, "one sum", Y)
    agree(X, "two terms", X)
    assert seen["one sum", False, False] == seen["two terms", True, False] == 1
    # both verdicts, and the fallback on the walk, occur among the inputs
    assert seen["prefix", True, True] and seen["prefix", False, False], seen
    assert seen["prefix", True, False] and seen["perturbed", True, False], seen
    assert seen["dropped", True, True] and seen["dropped", False, False], seen


def test_validate_rejects_arrows_that_do_not_generate(extensions):
    tri = extensions["dual_numbers"]
    T = copy.deepcopy(tri.T)
    T.arrows = [g for g in T.arrows if g not in tri.new_arrows]
    assert T.check_peirce()
    with pytest.raises(AlgebraBuildError, match="generate") as err:
        T.validate()
    assert "associative" not in str(err.value)


# the single-coordinate perturbations of each small T(A) that the generic
# validate accepts: associative tables, but not A ⋉ DA of the given A
ASSOCIATIVE_PERTURBATIONS = {"dual_numbers": 4, "local_two_loops": 16,
                             "nakayama_cycle_2": 8, "nakayama_cycle_3": 6,
                             "path_a2": 2}


def extension_failure(A, T):
    """The message `validate_extension` raises on T over A, or None."""
    try:
        validate_extension(A, T)
    except AlgebraBuildError as err:
        return str(err)
    return None


def test_extension_check_rejects_every_perturbation(algebras, extensions):
    # validate_extension reads T(A)'s table against A's instead of proving
    # associativity; the table of A ⋉ DA is determined by A, so it rejects
    # every table the generic validate rejects and the associative ones
    # it accepts too.  Mutants each fails: DA * DA left unread; only the
    # mixed block b_u b_v* compared
    by_validate = Counter()
    for name in SMALL:
        A, T = algebras[name], extensions[name].T
        assert extension_failure(A, T) is None, name
        for i, j, k in product(range(T.dim), repeat=3):
            Y = perturbed(T, i, j, k)
            assert extension_failure(A, Y) is not None, (name, i, j, k)
            by_validate[name, accepted(Y)] += 1
    assert sum(n for (_name, ok), n in by_validate.items() if not ok) == 2772
    assert {name: n for (name, ok), n in by_validate.items() if ok} == \
        ASSOCIATIVE_PERTURBATIONS


def test_extension_check_rejects_every_dropped_entry(extensions):
    # a fill that leaves out one nonzero entry of T(A); every entry left is
    # right, so among the table reads only the count of the mixed nonzeros
    # sees a dropped mixed entry.  The mutant without that count fails
    messages = Counter()
    for name, tri in extensions.items():
        A, T = tri.base, tri.T
        for at, Y in dropped_entries(T):
            failure = extension_failure(A, Y)
            assert failure is not None, (name, at)
            messages[failure] += 1
    # idempotent and generator entries trip the earlier checks
    assert messages == {"idempotent or Peirce axioms fail": 119,
                        "the idempotents and arrows do not generate the algebra": 15,
                        "the table of T(A) is not A ⋉ DA": 34}, messages


def test_extension_check_rejects_a_basis_element_past_twice_dim_a(algebras, extensions):
    # T(k[x]/x²) with one more basis element z at the vertex, e z = z e = z,
    # every other product of z zero, and z an arrow representative: an
    # associative, graded algebra that the generic validate accepts, but
    # not T(A), as its dimension is 5 and not 2 dim A = 4.  So is T(A) with
    # one row one slot too long.  The former table check read only the
    # first 2 dim A rows and columns and accepted both
    A, T = algebras["dual_numbers"], extensions["dual_numbers"].T
    z, e = T.dim, T.idempotent_indices[0]
    Z = copy.copy(T)
    Z.dim, Z.basis_labels = z + 1, T.basis_labels + ["z"]
    Z.peirce, Z.degrees = T.peirce + [(0, 0)], T.degrees + [1]
    Z.table = [row + [{}] for row in T.table] + [[{} for _ in range(z + 1)]]
    Z.table[e][z] = Z.table[z][e] = {z: T.field.one()}
    Z.arrows = T.arrows + [z]
    assert accepted(Z) and associative_on_all_triples(Z)
    assert is_extension_table_by_slots(A, Z)
    assert extension_failure(A, Z) == "the table of T(A) is not A ⋉ DA"

    W = copy.copy(T)
    W.table = [list(row) for row in T.table]
    W.table[1] = W.table[1] + [{}]
    assert is_extension_table_by_slots(A, W)
    assert extension_failure(A, W) == "the table of T(A) is not A ⋉ DA"


def walk_with_adds(walk, X, monkeypatch):
    """The layers `walk(X)` returns and the number of `Echelon.add` calls
    it makes."""
    adds = 0
    real = Echelon.add

    def spy(self, vec):
        nonlocal adds
        adds += 1
        return real(self, vec)

    with monkeypatch.context() as m:
        m.setattr(Echelon, "add", spy)
        layers = walk(X)
    return layers, adds


def assert_reads_agree(X, monkeypatch, base=None):
    """Every table read agrees with its former slot scan on X, and the
    arrow walk gives the same layers, rows and adds; with `base`, X is
    also read as T(base).  Returns the verdicts of the predicates."""
    verdicts = (X.check_peirce(), X.check_graded_products(), X.check_associativity())
    assert verdicts == (peirce_by_slots(X), graded_products_by_slots(X),
                        associativity_by_slots(X)), X
    got = walk_with_adds(arrow_layers, X, monkeypatch)
    want = walk_with_adds(arrow_layers_by_every_product, X, monkeypatch)
    assert got == want, X
    if base is not None:
        verdicts += (_is_extension_table(base, X),)
        assert verdicts[-1] == is_extension_table_by_slots(base, X), X
    return verdicts


def test_nonzero_reads_agree_with_the_slot_scans_on_generated_algebras(
        algebras, extensions, monkeypatch):
    # every corpus A and T(A), and the seeded ones over Q, F_3 and F_5
    seeded = seeded_algebras()
    assert {A.field.characteristic for A in seeded} == {0, 3, 5}
    pairs = ([(A, extensions[name].T) for name, A in algebras.items()]
             + [(A, trivial_extension(A).T) for A in seeded])
    for A, T in pairs:
        assert assert_reads_agree(A, monkeypatch) == (True, True, True), A
        assert assert_reads_agree(T, monkeypatch, base=A) == (True,) * 4, T


def test_nonzero_reads_agree_with_the_slot_scans_on_every_perturbation(
        algebras, extensions, monkeypatch):
    # every single-coordinate perturbation of the small A and T(A); T(A)
    # is also read as the extension of A, which none of them is.  The
    # other predicates take both values, so the agreement is not vacuous
    outcomes = Counter()
    for name in SMALL:
        A, T = algebras[name], extensions[name].T
        for X, base in ((A, None), (T, A)):
            for i, j, k in product(range(X.dim), repeat=3):
                verdicts = assert_reads_agree(perturbed(X, i, j, k), monkeypatch, base)
                outcomes.update(enumerate(verdicts))
    assert sum(outcomes[0, v] for v in (True, False)) == 3159
    assert all(outcomes[n, True] and outcomes[n, False] for n in range(3)), outcomes
    assert outcomes[3, False] == 2808 and not outcomes[3, True]


def peirce_breaks(X):
    """Copies of X whose declared blocks or idempotent products break the
    Peirce axioms: each non-idempotent b_k moved to every block (s, t) with
    s, t in -1..n, vertex indices past the vertices included; and b_k's
    products with the idempotents moved to the pattern of every other
    source and target, its declared block kept."""
    n, one = X.num_vertices, X.field.one()
    for k in X.radical_basis_indices():
        for block in product(range(-1, n + 1), repeat=2):
            if block != X.peirce[k]:
                Y = copy.copy(X)
                Y.peirce = list(X.peirce)
                Y.peirce[k] = block
                yield Y
        for src, tgt in product(range(n), repeat=2):
            if (src, tgt) == X.peirce[k]:
                continue
            Y = copy.copy(X)
            Y.table = [list(row) for row in X.table]
            for i, e in enumerate(X.idempotent_indices):
                Y.table[k][e] = {k: one} if i == src else {}
                Y.table[e] = list(Y.table[e])
                Y.table[e][k] = {k: one} if i == tgt else {}
            yield Y


def test_nonzero_reads_agree_with_the_slot_scans_on_broken_peirce_tables(
        algebras, extensions, monkeypatch):
    # the small A and T(A) with blocks or idempotent products that break
    # the Peirce axioms, on which the table reads may not assume them
    broken = Counter()
    for name in SMALL:
        A, T = algebras[name], extensions[name].T
        for X, base in ((A, None), (T, A)):
            for Y in peirce_breaks(X):
                verdicts = assert_reads_agree(Y, monkeypatch, base)
                broken[verdicts[0]] += 1
    # every break fails the Peirce check; the other reads, which do not
    # assume the axioms, still agree with the former ones on each
    assert broken == {False: 750}, broken
