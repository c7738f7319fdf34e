"""The bar-complex homology oracle against independent computations."""

import copy
import random
from fractions import Fraction
from itertools import product

import pytest

from trivext import hochschild
from trivext.algebra import FDAlgebra, build_algebra
from trivext.dsl import parse_presentation
from trivext.hochschild import (DEFAULT_TUPLE_CAP, _BarData, _Coboundary, chain_module,
                                commutator_rank, hh_dims)
from trivext.linalg import QQ, Echelon, SparseRank, row_reduce
from trivext.trivial_extension import trivial_extension

from reference import (DimensionCapExceeded, ExactMatrix, boundary_hh_dims,
                       boundary_matrix, boundary_rank, boundary_squares_to_zero,
                       coboundary_rank_by_columns, coboundary_rank_by_leads,
                       commutator_rank_by_fractions, key, leads_by_faces,
                       leads_by_prefix_scan, tuples, tuples_by_nested_walks)


def build(text, **kw):
    return build_algebra(parse_presentation(text), **kw)


DUAL = "field Q\nvertices v\narrow x : v -> v\nrelation x*x\n"


def periodic_resolution_hh_dual_numbers(n_max):
    """Independent oracle for HH of k[x]/(x^2) over a field in which 2 is
    invertible: the standard 2-periodic bimodule resolution induces, after
    tensoring down to the algebra, the complex

        A <-0- A <-mul(2x)- A <-0- A <-mul(2x)- ...

    so the homology dimensions follow from the kernel/image of
    multiplication by 2x alone."""
    A = build(DUAL)
    # multiplication by 2x in the basis (e, x): e -> 2x, x -> 0
    m2x = ExactMatrix.from_rows([[0, 0], [2, 0]], QQ)
    ker_2x = row_reduce(QQ, m2x.images()).rank  # = 1
    rank_2x = 2 - ker_2x                         # = 1
    dims = []
    for n in range(n_max + 1):
        if n == 0:
            dims.append(2 - 0)       # A / im(0)
        elif n % 2 == 1:
            dims.append(2 - rank_2x)  # ker(0) / im(2x)
        else:
            dims.append(ker_2x)      # ker(2x) / im(0)
    return dims


def test_hh_dual_numbers_matches_periodic_resolution():
    expected = periodic_resolution_hh_dual_numbers(4)
    assert expected == [2, 1, 1, 1, 1]  # frozen from the oracle above
    A = build(DUAL)
    for variant in ("normalized", "full"):
        rep = hh_dims(A, 4, variant=variant)
        assert [d for _n, d in rep.dims] == expected, variant


def test_hh_ground_field():
    A = build("field Q\nvertices v\n")
    rep = hh_dims(A, 4)
    assert rep.dims == [(0, 1), (1, 0), (2, 0), (3, 0), (4, 0)]


def test_hh_ranks_no_boundary_on_an_empty_chain_module(algebras, monkeypatch):
    # semisimple k has C_n = 0 for every n >= 1, so delta_1..delta_51 all
    # have rank 0 without any elimination
    calls = []
    real = hochschild._coboundary_rank

    def spy(data, n, cleared):
        calls.append(n)
        return real(data, n, cleared)

    monkeypatch.setattr(hochschild, "_coboundary_rank", spy)
    rep = hh_dims(algebras["semisimple_k"], 50)
    assert rep.dims == [(0, 1)] + [(n, 0) for n in range(1, 51)]
    assert calls == []


def test_hh_path_algebra_a2():
    # hereditary of global dimension one: only HH_0 = dim of the
    # commutator quotient survives; [B,B] = span{a}
    A = build("field Q\nvertices 1 2\narrow a : 1 -> 2\n")
    assert commutator_rank(A) == 1
    rep = hh_dims(A, 3)
    assert rep.dims == [(0, 2), (1, 0), (2, 0), (3, 0)]
    assert A.dim - commutator_rank(A) == rep.dims[0][1]


def test_hh0_equals_commutator_corank(algebras):
    for name, A in algebras.items():
        rep = hh_dims(A, 0)
        assert rep.dims[0][1] == A.dim - commutator_rank(A), name


def test_boundary_matrix_ground_field_normalized():
    A = build("field Q\nvertices v\n")
    m = boundary_matrix(A, 1, "normalized")
    assert m.ncols == 0  # the reduced algebra is zero
    assert m.rank() == 0


def test_boundary_b1_full_dual_numbers_is_zero():
    # b1(a0 x a1) = a0 a1 - a1 a0 = 0 for a commutative algebra
    A = build(DUAL)
    m = boundary_matrix(A, 1, "full")
    assert (m.nrows, m.ncols) == (2, 4)
    assert m.is_zero()


def _brute_force_full_b2_image(A):
    """Independent expansion of b2 on all d^3 tensors:
    b2(a0 x a1 x a2) = a0a1 x a2 - a0 x a1a2 + a2a0 x a1."""
    f = A.field
    d = A.dim
    vectors = []
    for a0 in range(d):
        for a1 in range(d):
            for a2 in range(d):
                out = {}

                def acc(vec, pos_fixed, sign):
                    for k, c in vec.items():
                        key = k * d + pos_fixed
                        v = f.add(out.get(key, f.zero()),
                                  f.mul(f.coerce(sign), c))
                        if v:
                            out[key] = v
                        else:
                            out.pop(key, None)

                acc(A.table[a0][a1], a2, 1)
                # - a0 x (a1 a2): first factor fixed, second varies
                for k, c in A.table[a1][a2].items():
                    key = a0 * d + k
                    v = f.add(out.get(key, f.zero()), f.neg(c))
                    if v:
                        out[key] = v
                    else:
                        out.pop(key, None)
                acc(A.table[a2][a0], a1, 1)
                vectors.append(out)
    return vectors


def test_boundary_b2_full_dual_numbers_rank():
    # by direct expansion the image is spanned by e x e, x x e and 2(x x x)
    # (from (e,e,e), (e,e,x) and (e,x,x)), so the rank is 3; this is also
    # forced by HH_1 = 4 - rank b1 - rank b2 = 1 with rank b1 = 0
    A = build(DUAL)
    m = boundary_matrix(A, 2, "full")
    assert (m.nrows, m.ncols) == (4, 8)
    assert m.rank() == 3
    assert Echelon(QQ, A.dim ** 3, _brute_force_full_b2_image(A)).rank == 3
    # the normalized complex collapses the same boundary to rank 1
    assert boundary_matrix(A, 2, "normalized").rank() == 1


def test_boundary_matrix_agrees_with_brute_force_columns():
    A = build(DUAL)
    m = boundary_matrix(A, 2, "full")
    brute = _brute_force_full_b2_image(A)
    for idx, col in enumerate(brute):
        assert m.cols[idx] == {k: v for k, v in col.items()}, idx


def test_boundary_squares_to_zero_small(algebras):
    for name in ("semisimple_k", "dual_numbers", "semisimple_k2", "path_a2"):
        A = algebras[name]
        for variant in ("normalized", "full"):
            assert boundary_squares_to_zero(A, 3, variant), (name, variant)


def test_normalized_and_full_agree_on_small_corpus(algebras, extensions):
    smalls = []
    for name, A in algebras.items():
        if A.dim <= 4:
            smalls.append(A)
        if extensions[name].T.dim <= 4:
            smalls.append(extensions[name].T)
    assert smalls
    for B in smalls:
        norm = hh_dims(B, 3, variant="normalized").dims
        full = hh_dims(B, 3, variant="full").dims
        assert norm == full, B.label


def test_chain_module_dimensions():
    A = build(DUAL)
    assert chain_module(A, 3, "normalized").dimension == 2 * 1 ** 3
    assert chain_module(A, 3, "full").dimension == 2 ** 4
    T = trivial_extension(A).T
    assert chain_module(T, 2, "normalized").dimension == 4 * 3 * 3


def test_dimension_cap_refusal():
    A = build(DUAL)
    T = trivial_extension(A).T  # dim 4, normalized C_5 = 4 * 3^5 = 972
    with pytest.raises(DimensionCapExceeded) as err:
        boundary_matrix(T, 5, "normalized", cap=900)
    assert err.value.required == 972
    rep = hh_dims(T, 5, cap=900)
    assert rep.truncated_at == 5
    # degrees 0..4 still computable: their ranks b_1..b_5 enumerate C_0..C_4
    # (C_4 = 324); C_5 is enumerated only by delta_6
    assert [n for n, _ in rep.dims] == [0, 1, 2, 3, 4]
    rep = hh_dims(T, 5, cap=300)
    assert rep.truncated_at == 4
    assert [n for n, _ in rep.dims] == [0, 1, 2, 3]


def test_cap_applies_to_the_enumerated_modules():
    # hh_dims(B, N) enumerates C_0..C_N; C_{N+1} holds only row keys, so
    # T(dual_numbers) at N = 8 fits the default cap although its C_9 = 78 732
    # tuples do not
    T = trivial_extension(build(DUAL)).T
    assert chain_module(T, 8).dimension <= DEFAULT_TUPLE_CAP < chain_module(T, 9).dimension
    rep = hh_dims(T, 8)
    assert rep.truncated_at is None
    assert rep.dims[8] == (8, 11)


def test_hh_over_prime_fields():
    # over F_5 the number 2 is invertible and the dual numbers behave as in
    # characteristic zero; over F_2 both induced maps of the periodic
    # resolution vanish, so every degree contributes the full algebra
    A5 = build("field F 5\nvertices v\narrow x : v -> v\nrelation x*x\n")
    assert [d for _n, d in hh_dims(A5, 4).dims] == [2, 1, 1, 1, 1]
    A2 = build("field F 2\nvertices v\narrow x : v -> v\nrelation x*x\n")
    assert [d for _n, d in hh_dims(A2, 4).dims] == [2, 2, 2, 2, 2]


def test_hh_corroboration_small_extensions(algebras, extensions):
    # every trivial extension of dimension <= 8 must show nonvanishing
    # homology through degree 4, consistent with the certificates
    for name, tri in extensions.items():
        T = tri.T
        if T.dim > 8:
            continue
        rep = hh_dims(T, 4, cap=200_000)
        dims = dict(rep.dims)
        for n in range(1, 5):
            assert dims[n] >= 1, (name, n)


# -- the E-relative complex against the k-normalized one it replaced ----------


class KNormalizedBar:
    """Reference: the normalized bar complex over k, B (x) (B/k.1)^{(x) n},
    with d (d-1)^n tuples.  The factors after the first live on the
    complement of the unit inside the echelonized basis headed by 1; face
    products in those slots are reduced, and tuples hitting the class of 1
    drop out.  Columns use field arithmetic, with no integer scaling."""

    def __init__(self, B):
        self.B = B
        self.d = B.dim
        self.unit_pivot = min(B.idempotent_indices)  # echelon head: the unit itself
        self.reps = [k for k in range(B.dim) if k != self.unit_pivot]
        self.slot_of = {k: s for s, k in enumerate(self.reps)}
        self.dbar = len(self.reps)

    def chain_dim(self, n):
        return self.d * self.dbar ** n

    def reduce(self, vec):
        """Class of a B-vector in B/k.1, on the non-unit slots."""
        f = self.B.field
        c = vec.get(self.unit_pivot)
        out = {k: v for k, v in vec.items() if k != self.unit_pivot}
        if c:
            for k in self.B.idempotent_indices:
                if k != self.unit_pivot:
                    v = f.add(out.get(k, f.zero()), f.neg(c))
                    if v:
                        out[k] = v
                    else:
                        out.pop(k, None)
        return out

    def columns(self, n):
        B, f = self.B, self.B.field
        d, dbar, reps = self.d, self.dbar, self.reps
        pw = [dbar ** m for m in range(n)]

        def first_key(w, rest):
            key = w * pw[n - 1]
            for k, s in enumerate(rest):
                key += s * pw[n - 2 - k]
            return key

        for tup in product(range(d), *([range(dbar)] * n)):
            t0, slots = tup[0], tup[1:]
            col = {}

            def bump(key, coeff):
                v = f.add(col.get(key, f.zero()), coeff)
                if v:
                    col[key] = v
                else:
                    col.pop(key, None)

            for w, c in B.table[t0][reps[slots[0]]].items():
                bump(first_key(w, slots[1:]), c)
            for i in range(1, n):
                raw = self.reduce(B.table[reps[slots[i - 1]]][reps[slots[i]]])
                base = t0 * pw[n - 1]
                for k in range(i - 1):
                    base += slots[k] * pw[n - 2 - k]
                tail = 0
                for k in range(i + 1, n):
                    tail += slots[k] * pw[n - 1 - k]
                for w, c in raw.items():
                    key = base + self.slot_of[w] * pw[n - 1 - i] + tail
                    bump(key, c if i % 2 == 0 else f.neg(c))
            for w, c in B.table[reps[slots[-1]]][t0].items():
                bump(first_key(w, slots[:-1]), c if n % 2 == 0 else f.neg(c))
            yield col


def k_normalized_hh(B, n_max):
    """dim HH_n for 0 <= n <= n_max from the reference complex."""
    ref = KNormalizedBar(B)
    ranks = {0: 0}
    for n in range(1, n_max + 2):
        ranks[n] = Echelon(B.field, ref.chain_dim(n - 1), ref.columns(n)).rank
    return [(n, ref.chain_dim(n) - ranks[n] - ranks[n + 1])
            for n in range(n_max + 1)]


def composable_tuples(B, n):
    """Brute force: tuples (b_0, r_1, ..., r_n) of basis indices, r_i not an
    idempotent, with b_0 r_1, r_1 r_2, ..., r_n b_0 composable through the
    declared Peirce blocks (b = e_tgt b e_src, so x y needs src x = tgt y)."""
    rad = [k for k in range(B.dim) if k not in B.idempotent_indices]
    count = 0
    for tup in product(range(B.dim), *([rad] * n)):
        cyc = tup + tup[:1]
        count += all(B.peirce[x][0] == B.peirce[y][1] for x, y in zip(cyc, cyc[1:]))
    return count


def random_quiver_algebra(rng, field):
    """A random quiver on 2 or 3 vertices modulo all paths of length 3 and,
    for each length-2 path, a monomial or a commutativity relation (with a
    non-integer scalar over Q) or none."""
    p = 0 if field == "field Q" else int(field.split()[-1])
    vertices = [f"v{i}" for i in range(rng.randint(2, 3))]
    arrows = [(f"a{i}", rng.choice(vertices), rng.choice(vertices))
              for i in range(rng.randint(2, 4))]
    lines = [field, "vertices " + " ".join(vertices)]
    lines += [f"arrow {a} : {s} -> {t}" for a, s, t in arrows]
    paths2 = [(b, a) for a in arrows for b in arrows if a[2] == b[1]]
    by_ends = {}
    for b, a in paths2:
        by_ends.setdefault((a[1], b[2]), []).append(f"{b[0]}*{a[0]}")
    for group in by_ends.values():
        rng.shuffle(group)
        while group:
            first = group.pop()
            roll = rng.random()
            if roll < 0.4:
                lines.append(f"relation {first}")
            elif roll < 0.8 and group:
                c = rng.choice(["1/2", "3", "2/3"]) if not p else rng.randint(1, p - 1)
                lines.append(f"relation {first} - {c}*{group.pop()}")
    for c, b in paths2:
        for a in arrows:
            if a[2] == b[1]:
                lines.append(f"relation {c[0]}*{b[0]}*{a[0]}")
    return build("\n".join(lines) + "\n")


@pytest.mark.parametrize("field", ["field Q", "field F 3", "field F 5"])
def test_e_relative_matches_k_normalized_and_full(field):
    rng = random.Random(f"e-relative {field}")
    compared = multi_vertex = 0
    for _ in range(40):
        A = random_quiver_algebra(rng, field)
        for B in (A, trivial_extension(A).T):
            if B.dim > 8:
                continue
            n_max = 3 if B.dim <= 5 else 2
            rep = hh_dims(B, n_max)
            assert rep.dims == k_normalized_hh(B, n_max), B.basis_labels
            assert rep.dims[:3] == hh_dims(B, 2, variant="full").dims
            assert rep.dims[0][1] == B.dim - commutator_rank(B)
            for n in range(4):
                assert chain_module(B, n).dimension == composable_tuples(B, n)
            compared += 1
            multi_vertex += B.num_vertices > 1
    assert compared >= 15 and multi_vertex >= 15


HALF_SQUARE = ("field Q\nvertices 1 2 3 4\narrow c0 : 1 -> 2\narrow c1 : 2 -> 4\n"
               "arrow d0 : 1 -> 3\narrow d1 : 3 -> 4\nrelation c1*c0 - 1/2*d1*d0\n")
# a quantum plane y x = 3/2 x y
QUANTUM_PLANE = ("field Q\nvertices v\narrow x : v -> v\narrow y : v -> v\n"
                 "relation x*x\nrelation y*y\nrelation y*x - 3/2*x*y\n")


def test_e_relative_clears_denominators():
    A = build(HALF_SQUARE)
    assert Fraction(1, 2) in {c for row in A.table for prod in row
                              for c in prod.values()}
    assert hh_dims(A, 2).dims == k_normalized_hh(A, 2) == [(0, 4), (1, 0), (2, 0)]
    assert hh_dims(A, 2, variant="full").dims == [(0, 4), (1, 0), (2, 0)]
    T = trivial_extension(A).T
    assert hh_dims(T, 2).dims[0][1] == T.dim - commutator_rank(T)
    # the same boundaries scaled by 2 and written over F_3 and F_5
    for p in (3, 5):
        Ap = build(HALF_SQUARE.replace("field Q", f"field F {p}"))
        assert hh_dims(Ap, 2).dims == k_normalized_hh(Ap, 2)
    # a quantum plane y x = 3/2 x y: dropping the 3/2 changes its homology
    Q = build(QUANTUM_PLANE)
    assert Fraction(3, 2) in {c for row in Q.table for prod in row
                              for c in prod.values()}
    assert hh_dims(Q, 3).dims == k_normalized_hh(Q, 3) == [(0, 3), (1, 2), (2, 2), (3, 2)]
    T = trivial_extension(Q).T
    assert hh_dims(T, 2).dims == k_normalized_hh(T, 2) == [(0, 5), (1, 6), (2, 6)]


def test_commutator_rank_matches_fraction_columns(algebras, extensions):
    # commutator_rank reads integer columns off the table that
    # integer_tables scaled by the lcm of its denominators; the former
    # routine subtracted Fraction entries.  Columns left unscaled, with
    # their fractions truncated, fail here on the quantum plane and its
    # T(A).
    algs = list(algebras.values()) + [tri.T for tri in extensions.values()]
    for text in (HALF_SQUARE, QUANTUM_PLANE):
        A = build(text)
        algs += [A, trivial_extension(A).T]
    for B in algs:
        assert commutator_rank(B) == commutator_rank_by_fractions(B), B


def test_e_relative_shrinks_multi_vertex_chains(extensions):
    # C_5 of T(nakayama_cycle_3): d (d-1)^5 = 1 932 612 tuples over k
    T = extensions["nakayama_cycle_3"].T
    assert chain_module(T, 5).dimension == 972
    assert chain_module(T, 5, "full").dimension == T.dim ** 6
    # local algebras keep d (d-1)^n
    T = extensions["dual_numbers"].T
    assert chain_module(T, 5).dimension == 4 * 3 ** 5


def _two_idempotents_in_one_vertex():
    """k x k on the basis e = 1 and f with f f = e: f spans no ideal."""
    one = QQ.one()
    table = [[{0: one}, {1: one}], [{1: one}, {0: one}]]
    return FDAlgebra(QQ, ["e", "f"], ["v"], [0], [(0, 0), (0, 0)], table, [])


def test_precondition_rejects_non_ideal_radical_basis():
    B = _two_idempotents_in_one_vertex()
    with pytest.raises(ValueError, match="ideal"):
        hh_dims(B, 2)
    # the full complex needs no precondition: HH(k x k) = k^2 in degree 0
    assert hh_dims(B, 2, variant="full").dims == [(0, 2), (1, 0), (2, 0)]


def test_precondition_rejects_element_outside_peirce_blocks(algebras):
    A = copy.deepcopy(algebras["path_a2"])
    a = A.basis_labels.index("a")
    e = A.idempotent_indices[0]
    A.table[e][a] = {a: A.field.one()}  # now a = e_1 a and e_2 a
    A.table[A.idempotent_indices[1]][a] = {a: A.field.one()}
    with pytest.raises(ValueError, match="Peirce block"):
        hh_dims(A, 1)


def test_corroborates_infinite_needs_only_the_top_degree(extensions):
    # HHdim = infinity lets single degrees vanish: T(five_vertex_weighted)
    # has HH_2 = HH_3 = 0 and HH_4 = 1
    T = extensions["five_vertex_weighted"].T
    rep = hh_dims(T, 4)
    assert rep.dims == [(0, 6), (1, 1), (2, 0), (3, 0), (4, 1)]
    assert rep.corroborates_infinite() is True
    assert hh_dims(T, 2).corroborates_infinite() is False
    assert hh_dims(T, 4, cap=1000).corroborates_infinite() is None


# -- coboundaries with clearing against the former boundary path ---------------


def coboundary_matrix(B, n, variant):
    """delta_n as an exact matrix: one row per degree-n tuple and one column
    per degree-(n-1) tuple, both in the order of `tuples`."""
    data = _BarData(B, variant)
    f, scale = B.field, data.integer_tables[0]
    row_of = {-key(data, t): r for r, t in enumerate(tuples(data, n))}
    m = ExactMatrix(data.chain_dim(n), data.chain_dim(n - 1), f)
    delta = _Coboundary(data, n)
    for idx, u in enumerate(tuples(data, n - 1)):
        col = {row_of[k]: f.coerce((c, scale)) for k, c in
               delta.column(-key(data, u)).items()}
        m.cols[idx] = {r: c for r, c in col.items() if c}
    return m


def entries(m, transpose=False) -> dict:
    return {((c, r) if transpose else (r, c)): x
            for c, col in enumerate(m.cols) for r, x in col.items()}


def reversed_basis(B):
    """B on its basis in reverse order, so that the non-idempotent basis
    elements come first and head the largest tuples."""
    d = B.dim
    table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            table[d - 1 - i][d - 1 - j] = {d - 1 - k: c for k, c in B.table[i][j].items()}
    return FDAlgebra(B.field, B.basis_labels[::-1], B.vertex_names,
                     [d - 1 - k for k in B.idempotent_indices], B.peirce[::-1], table, [])


def oracle_inputs(algebras, extensions):
    """Every corpus A and T(A), also on the reversed basis, then seeded A
    and T(A) on 2 or 3 vertices over Q, F_3 and F_5."""
    out = list(algebras.values()) + [tri.T for tri in extensions.values()]
    out += [reversed_basis(B) for B in out]
    for field in ("field Q", "field F 3", "field F 5"):
        rng = random.Random(f"coboundaries {field}")
        for _ in range(8):
            A = random_quiver_algebra(rng, field)
            out += [A, trivial_extension(A).T]
    return out


def top_degree(B, variant, limit, n_max=6):
    """The largest N <= n_max with dim C_1, ..., C_{N+1} <= limit; -1 if
    dim C_1 > limit."""
    data = _BarData(B, variant)
    N = -1
    while N < n_max and data.chain_dim(N + 2) <= limit:
        N += 1
    return N


def test_coboundary_is_the_transposed_boundary(algebras, extensions):
    # delta_n = b_n^T entry by entry, against the former boundary columns,
    # and hh_dims with clearing equals the ranks of the former boundaries,
    # in both variants.  A flipped sign on the wrap face fails the first
    # check; clearing with the pivots of delta_{n-1} instead of delta_n
    # fails the second, and so does keeping the pivots of delta_{n-1}
    # across an empty chain module: nakayama_cycle_3 has C_4 = 0 < C_3, C_5,
    # and on its reversed basis keys of C_3 and C_5 tuples meet.
    compared = skipped_empty = 0
    for B in oracle_inputs(algebras, extensions):
        for variant in ("normalized", "full"):
            for n in range(1, top_degree(B, variant, 600, n_max=3) + 2):
                assert entries(coboundary_matrix(B, n, variant)) == \
                    entries(boundary_matrix(B, n, variant), transpose=True), (B, n)
            N = top_degree(B, variant, 6000)
            if N < 0:
                continue
            assert hh_dims(B, N, variant, cap=6000).dims == \
                boundary_hh_dims(B, N, variant), (B, variant)
            data = _BarData(B, variant)
            skipped_empty += any(data.chain_dim(n - 1) and not data.chain_dim(n)
                                 and data.chain_dim(n + 1) for n in range(2, N))
            compared += 1
    assert compared >= 120 and skipped_empty >= 2, (compared, skipped_empty)


def trie_tuples(data, n):
    """The tuples of `_BarData.block_trie(n)`: the product of the members
    along each path from depth 0 to depth n, in the order of the paths."""
    path = []
    for depth, blocks in data.block_trie(n):
        path[depth:] = blocks
        if len(path) == n + 1:
            yield from product(*path)


def test_tuples_keep_the_order_of_the_nested_walks(algebras, extensions):
    # _BarData.block_trie shares the nodes of walks with a common prefix;
    # its tuples, in order, equal the former enumeration through nested
    # generators, on which the leads and hence the clearing depend, and so
    # do those of `tuples`, the depth-first walks the tests enumerate with.
    # T(path_a2) has one slot per block, so there each walk is one tuple.
    compared = 0
    inputs = oracle_inputs(algebras, extensions)
    for B in inputs:
        for variant in ("normalized", "full"):
            data = _BarData(B, variant)
            n = 0
            while n <= 8 and data.chain_dim(n) <= 2000:
                got = list(trie_tuples(data, n))
                assert got == list(tuples_by_nested_walks(data, n)), (B, variant, n)
                assert got == list(tuples(data, n)), (B, variant, n)
                assert len(got) == data.chain_dim(n)
                compared += 1
                n += 1
    data = _BarData(extensions["path_a2"].T, "normalized")
    for n in (12, 13):
        assert list(trie_tuples(data, n)) == list(tuples_by_nested_walks(data, n))
    assert compared >= 4 * len(inputs), compared


class RecordedEngines:
    """`hochschild.SparseRank` replaced by a recorder of the engines that
    `_coboundary_rank` makes, and `SparseRank.add` by a counter of the
    adds made on each engine, kept on the engine."""

    def __init__(self, monkeypatch):
        self.engines = []
        real_add = SparseRank.add

        def recording(*args):
            self.engines.append(SparseRank(*args))
            return self.engines[-1]

        def add(eng, col):
            eng.adds_recorded = getattr(eng, "adds_recorded", 0) + 1
            return real_add(eng, col)

        monkeypatch.setattr(hochschild, "SparseRank", recording)
        monkeypatch.setattr(SparseRank, "add", add)

    @staticmethod
    def state(eng):
        """The rank, the pivots in the order they were made, deferred cells
        and built columns alike, and the number of adds of `eng`."""
        return eng.rank, list(eng.pivots.items()), getattr(eng, "adds_recorded", 0)


def assert_single_pass_matches(data, N, leads, recorded, first=1):
    """Run the clearing of hh_dims(B, N) and compare, for each delta_n with
    n >= first, the engine `_coboundary_rank` leaves with the one the
    loop driven by the stream `leads` leaves, under the real cleared set.
    Returns the columns compared (the tuples outside the cleared set), the
    tuples cleared, and the deferred pivots and the adds made."""
    columns = skipped = deferred = adds = 0
    cleared = set()
    for n in range(1, N + 2):
        if not (data.chain_dim(n - 1) and data.chain_dim(n)):
            cleared = set()
            continue
        rank, new_cleared = hochschild._coboundary_rank(data, n, cleared)
        if n >= first:
            got = recorded.state(recorded.engines[-1])
            want = recorded.state(coboundary_rank_by_leads(data, n, cleared, leads))
            assert got == want, (data.B, data.dbar == data.d, n)
            assert rank == got[0] and new_cleared == set(dict(got[1])), (data.B, n)
            columns += data.chain_dim(n - 1) - len(cleared)
            skipped += len(cleared)
            adds += got[2]
            deferred += sum(type(v) is not dict for _j, v in got[1])
        cleared = new_cleared
    return columns, skipped, deferred, adds


def test_single_pass_matches_the_leads_driven_loop(algebras, extensions, monkeypatch):
    # _coboundary_rank computes each lead inside its one loop over the
    # block trie and defers or adds on the spot; the engine it leaves is
    # the one the former loop over the stream of `_Coboundary.leads`
    # leaves: the same pivots made in the same order, each still the same
    # deferred row key or the same built column, the same rank and the
    # same number of adds, under the cleared sets hh_dims uses, in both
    # variants over Q, F_3 and F_5.  Not summing ties, leaving the wrap
    # face out, carrying another head's wrap lead, or deferring a
    # cancelled lead fails here.
    recorded = RecordedEngines(monkeypatch)
    counts = {p: [0, 0, 0, 0] for p in (0, 3, 5)}
    for B in oracle_inputs(algebras, extensions):
        for variant in ("normalized", "full"):
            N = top_degree(B, variant, 2000)
            if N >= 0:
                got = assert_single_pass_matches(_BarData(B, variant), N,
                                                 leads_by_prefix_scan, recorded)
                counts[B.field.characteristic] = [
                    a + b for a, b in zip(counts[B.field.characteristic], got)]
    assert all(columns >= 5_000 and skipped >= 1_000 and deferred >= 1_000 and adds >= 500
               for columns, skipped, deferred, adds in counts.values()), counts


def test_prefix_scan_yields_the_face_by_face_stream(algebras, extensions, monkeypatch):
    # the single pass carries the least key of the prefix faces down the
    # block trie and adds only the wrap face per tuple; it makes the
    # decisions of the loop driven by the former face-by-face stream, the
    # same tuples in the same order with the same (j, c), so it leaves the
    # same engine, under the cleared sets hh_dims uses, in both variants
    # over Q, F_3 and F_5.  Not summing ties, leaving the wrap face out,
    # or restarting the prefix states at every walk of blocks fails here.
    recorded = RecordedEngines(monkeypatch)
    counts = {0: [0, 0], 3: [0, 0], 5: [0, 0]}
    for B in oracle_inputs(algebras, extensions):
        for variant in ("normalized", "full"):
            N = top_degree(B, variant, 2000)
            if N >= 0:
                leads, skipped, _d, _a = assert_single_pass_matches(
                    _BarData(B, variant), N, leads_by_faces, recorded)
                counts[B.field.characteristic][0] += leads
                counts[B.field.characteristic][1] += skipped
    assert all(leads >= 5_000 and skipped >= 1_000 for leads, skipped in counts.values()), \
        counts
    # long walks of one-slot blocks, and a three-vertex cycle
    data = _BarData(extensions["path_a2"].T, "normalized")
    assert assert_single_pass_matches(data, 14, leads_by_faces, recorded,
                                      first=13)[0] >= 50_000
    data = _BarData(extensions["nakayama_cycle_3"].T, "normalized")
    assert assert_single_pass_matches(data, 8, leads_by_faces, recorded)[0] >= 10_000


def test_leading_entry_is_read_without_the_column(algebras, extensions, monkeypatch):
    # the lead of every column of delta_n, read off the first entries of
    # the faces' coface lists, against the column built in full: its
    # smallest key and the integer there.  Where the faces' coefficients
    # cancel (mod p) the lead is not the column's leading entry.  Leaving
    # the wrap face out of the scan, or not summing ties across faces,
    # fails here.  The coface lists, sorted once per algebra, are in
    # ascending order of their keys in every degree and face.  Every
    # column `_coboundary_rank` defers leads, nonzero, at its pivot.
    recorded = RecordedEngines(monkeypatch)
    checked = cancelled = deferred = 0
    for B in oracle_inputs(algebras, extensions):
        p = B.field.characteristic
        for variant in ("normalized", "full"):
            data = _BarData(B, variant)
            for n in range(1, top_degree(B, variant, 600, n_max=3) + 2):
                delta = _Coboundary(data, n)
                for faces in (delta.first, *delta.mid[1:], delta.wrap):
                    assert all(cof == sorted(cof) for cof in faces), (B, variant, n)
                for r, j, c in leads_by_prefix_scan(delta, set()):
                    col = delta.column(r)
                    if j is None:
                        assert not col, (B, r)
                        continue
                    assert (j, c) == (min(col), col[j]), (B, variant, r)
                    nonzero = [k for k, x in col.items() if (x % p if p else x)]
                    if c % p if p else c:
                        assert j == min(nonzero), (B, variant, r)
                    else:
                        cancelled += 1
                        assert all(k > j for k in nonzero), (B, variant, r)
                    checked += 1
                if not data.chain_dim(n):
                    continue
                hochschild._coboundary_rank(data, n, set())
                for j, cell in recorded.engines[-1].pivots.items():
                    if type(cell) is not dict:
                        col = delta.column(cell)
                        assert min(k for k, x in col.items() if (x % p if p else x)) == j
                        deferred += 1
    assert checked >= 5000 and cancelled >= 1 and deferred >= 1000, \
        (checked, cancelled, deferred)


def test_deferred_pivots_match_every_column_elimination(algebras, extensions,
                                                        monkeypatch):
    # once every deferred pivot is built, the pivots of each delta_n are the
    # reduced columns that adding every column stores, over Q, F_3 and F_5:
    # the same keys, the same clearing and the same normalization.
    # Deferring a cancelled lead, or storing an F_p pivot unscaled, fails
    # here.
    recorded = RecordedEngines(monkeypatch)
    compared = {0: 0, 3: 0, 5: 0}
    for B in oracle_inputs(algebras, extensions):
        for variant in ("normalized", "full"):
            data = _BarData(B, variant)
            cleared = ref_cleared = set()
            for n in range(1, top_degree(B, variant, 2000) + 2):
                if not (data.chain_dim(n - 1) and data.chain_dim(n)):
                    cleared = ref_cleared = set()
                    continue
                rank, cleared = hochschild._coboundary_rank(data, n, cleared)
                eng = recorded.engines[-1]
                for j in list(eng.pivots):
                    eng._pivot(j)
                ref = coboundary_rank_by_columns(data, n, ref_cleared)
                assert (rank, eng.pivots) == (ref.rank, ref.pivots), (B, variant, n)
                ref_cleared = set(ref.pivots)
                compared[B.field.characteristic] += 1
    assert min(compared.values()) >= 80, compared


def test_coboundary_work_counts(algebras, extensions, monkeypatch):
    # Clearing leaves delta_n the dim C_{n-1} - rank b_{n-1} columns outside
    # the pivot rows of delta_{n-1}: rank b_n of them are deferred pivots or
    # enlarge SparseRank, and the other dim HH_{n-1} are adds that do not or
    # empty columns that hh_dims skips.  No tuple of the top module C_{N+1}
    # is enumerated (the deepest block trie walked is that of C_N), and
    # fewer than half of the columns are built.
    cases = []
    for B in oracle_inputs(algebras, extensions):
        for variant in ("normalized", "full"):
            N = top_degree(B, variant, 6000)
            data = _BarData(B, variant)
            # on an empty chain module hh_dims enumerates nothing at all
            if N >= 0 and all(data.chain_dim(n) for n in range(N + 2)):
                ranks = sum(boundary_rank(data, n) for n in range(1, N + 2))
                cases.append((B, variant, N, ranks))
    assert len(cases) >= 40, len(cases)
    adds, engines, leads, built, degrees = [], [], [], [], []
    real_add, real_rank = SparseRank.add, hochschild._coboundary_rank
    real_trie, real_column = _BarData.block_trie, _Coboundary.column

    def add(self, col):
        adds.append(real_add(self, col))
        return adds[-1]

    def recording(*args):
        engines.append(SparseRank(*args))
        return engines[-1]

    def block_trie(self, n):
        degrees.append(n)
        return real_trie(self, n)

    def coboundary_rank(data, n, cleared):
        # the columns of delta_n: one per degree-(n-1) tuple outside the
        # pivot rows of delta_{n-1}, all of them row keys of C_{n-1}
        leads.append(data.chain_dim(n - 1) - len(cleared))
        return real_rank(data, n, cleared)

    def column(self, u):
        built.append(u)
        return real_column(self, u)

    monkeypatch.setattr(SparseRank, "add", add)
    monkeypatch.setattr(hochschild, "SparseRank", recording)
    monkeypatch.setattr(_BarData, "block_trie", block_trie)
    monkeypatch.setattr(hochschild, "_coboundary_rank", coboundary_rank)
    monkeypatch.setattr(_Coboundary, "column", column)
    columns = columns_built = 0
    for B, variant, N, ranks in cases:
        adds.clear(), engines.clear(), leads.clear(), built.clear(), degrees.clear()
        dims = hh_dims(B, N, variant, cap=6000).dims
        # a column is built to be added, or to build a deferred pivot that
        # a reduction meets; the deferred pivots never met are still cells
        deferred = len(built) - len(adds) + sum(
            type(v) is not dict for eng in engines for v in eng.pivots.values())
        empty = sum(leads) - deferred - len(adds)
        assert deferred + sum(adds) == ranks, (B, variant)
        assert len(adds) - sum(adds) + empty == sum(d for _n, d in dims), (B, variant)
        assert max(degrees) == N, (B, variant)
        columns += sum(leads)
        columns_built += len(built)
    assert columns_built < columns / 2, (columns_built, columns)
