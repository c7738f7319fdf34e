"""Exact linear algebra: ranks, kernels, quotients, polynomial determinants."""

import random
from fractions import Fraction

import pytest

from trivext.linalg import (GF, QQ, Echelon, FieldMismatchError, GroundField,
                            IntPolynomial, SparseRank, poly_det,
                            row_reduce)

from reference import (ExactMatrix, FractionField, TwoLoopSparseRank, apply_column,
                       exact_div, poly_det_by_polynomial_bareiss)


def test_identity_matrix_full_rank():
    m = ExactMatrix.from_rows([[1, 0], [0, 1]], QQ)
    assert m.rank() == 2
    assert row_reduce(QQ, m.images()) == Echelon(QQ, 2)
    assert Echelon(QQ, 2, [[1, 0], [0, 1]]).pivots == [0, 1]


def test_one_by_two_kernel():
    m = ExactMatrix.from_rows([[1, 1]], QQ)
    assert m.rank() == 1
    assert row_reduce(QQ, m.images()) == Echelon(QQ, 2, [{0: 1, 1: -1}])


def test_dual_numbers_multiplication_matrix_kernel():
    # left multiplication by x on k[x]/(x^2) in the basis (e, x):
    # x*e = x, x*x = 0, so the columns are (0,1) and (0,0)
    m = ExactMatrix.from_rows([[0, 0], [1, 0]], QQ)
    assert m.rank() == 1
    assert row_reduce(QQ, m.images()) == Echelon(QQ, 2, [{1: 1}])


def test_rank_nullity_and_exact_kernel_random():
    rng = random.Random(20240811)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = ExactMatrix.from_rows(
            [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
              for _ in range(cols)] for _ in range(rows)], QQ)
        kernel = row_reduce(QQ, m.images())
        assert (kernel.field, kernel.width) == (QQ, cols)
        assert m.rank() + kernel.rank == cols
        for v in kernel.rows:
            assert not apply_column(m, v)


def test_sparse_rank_agrees_with_dense():
    # SparseRank takes integer columns over Q and over F_p alike
    rng = random.Random(7)
    for p in (0, 5):
        field = QQ if p == 0 else GF(p)
        for _ in range(30):
            rows = rng.randrange(1, 7)
            cols = rng.randrange(1, 7)
            data = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
            m = ExactMatrix.from_rows(data, field)
            eng = SparseRank(p)
            for c in range(cols):
                eng.add({r: data[r][c] for r in range(rows)})
            assert eng.rank == m.rank() == cols - row_reduce(field, m.images()).rank


@pytest.mark.parametrize("normalize_bits", [256, 2])
def test_sparse_rank_unit_and_scaled_pivots(monkeypatch, normalize_bits):
    # integer columns mixing +-1 pivots and large integers, with dependent
    # columns; a tiny normalization threshold divides the content out on
    # almost every step
    monkeypatch.setattr(SparseRank, "_NORMALIZE_BITS", normalize_bits)
    rng = random.Random(4100 + normalize_bits)
    for p in (0, 3, 7):
        field = QQ if p == 0 else GF(p)
        for _ in range(40):
            rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
            pool = [1, -1, 2, -3, 10 ** 30 + 7]
            columns = [{r: rng.choice(pool) for r in range(rows)
                        if rng.random() < 0.6} for _ in range(cols)]
            for _ in range(rng.randrange(0, 3)):
                a, b = rng.choice(columns), rng.choice(columns)
                c = rng.choice(pool)
                columns.append({r: a.get(r, 0) + c * b.get(r, 0)
                                for r in set(a) | set(b)})
            eng, ech = SparseRank(p), Echelon(field, rows)
            for col in columns:
                vec = {r: field.coerce(x) for r, x in col.items()}
                assert eng.add(col) == ech.add(vec)
            assert eng.rank == ech.rank


@pytest.mark.parametrize("p", [0, 3, 5])
def test_one_loop_sparse_rank_matches_the_two_loop_one(p):
    # the merged loop of SparseRank.add against the former pair of loops,
    # fed the same columns and deferred pivots: leading entries other than +-1,
    # entries past _NORMALIZE_BITS, dependent columns, and columns deferred
    # at a new leading index and built when a later reduction meets it
    rng = random.Random(2020 + p)
    big = 2 ** (SparseRank._NORMALIZE_BITS + 4)
    pool = [1, -1, 2, -2, 3, 4, -6, 7, big + 1, -3 * big, 5 * big * big - 2]
    deferred = scaled = 0
    for _ in range(80):
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 12)
        columns = [{r: rng.choice(pool) for r in range(rows) if rng.random() < 0.5}
                   for _ in range(cols)]
        for _ in range(rng.randrange(0, 4)):
            a, b = rng.choice(columns), rng.choice(columns)
            c = rng.choice(pool)
            columns.append({r: a.get(r, 0) + c * b.get(r, 0) for r in set(a) | set(b)})
        rng.shuffle(columns)
        new, old = (cls(p, columns.__getitem__) for cls in (SparseRank, TwoLoopSparseRank))
        for i, col in enumerate(columns):
            lead = min((r for r, x in col.items() if (x % p if p else x)), default=None)
            if lead is not None and lead not in new.pivots and rng.random() < 0.4:
                for eng in (new, old):
                    eng.pivots[lead] = i
                    eng.rank += 1
                deferred += 1
            else:
                scaled += any(type(v) is dict and abs(v[j]) != 1
                              for j, v in new.pivots.items() if j in col)
                assert new.add(col) == old.add(col)
            assert (new.rank, new.pivots) == (old.rank, old.pivots)
    assert deferred > 40
    assert p or scaled > 100


# -- the sparse echelon engine against the dense one it replaced ---------------


class DenseEchelon:
    """Reference: the dense reduced echelon engine, rows as full lists."""

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        f = self.field
        v = [f.coerce(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = [f.add(a, f.neg(f.mul(c, b))) for a, b in zip(v, row)]
        return v

    def add(self, vec):
        f = self.field
        v = self.reduce(vec)
        j = next((k for k, x in enumerate(v) if x), None)
        if j is None:
            return False
        c = f.inv(v[j])
        v = [f.mul(c, x) for x in v]
        for i, row in enumerate(self.rows):
            d = row[j]
            if d:
                self.rows[i] = [f.add(a, f.neg(f.mul(d, b))) for a, b in zip(row, v)]
        at = next((i for i, p in enumerate(self.pivots) if p > j), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, j)
        return True

    def contains(self, vec):
        return all(not x for x in self.reduce(vec))


def dense_row_reduce(m):
    """Reference: rank, kernel basis and pivot columns from dense rows."""
    f = m.field
    ech = DenseEchelon(f, m.ncols)
    for r in range(m.nrows):
        ech.add([m.get(r, c) for c in range(m.ncols)])
    free = [j for j in range(m.ncols) if j not in ech.pivots]
    ker = DenseEchelon(f, m.ncols)
    for j in free:
        v = [f.zero()] * m.ncols
        v[j] = f.one()
        for row, p in zip(ech.rows, ech.pivots):
            v[p] = f.neg(row[j])
        ker.add(v)
    return ech.rank, ker.rows, ech.pivots


def dense(vec, width, field):
    out = [field.zero()] * width
    for k, x in vec.items():
        out[k] = x
    return out


def random_fraction(rng, field, bound):
    """A Fraction with a denominator that is invertible in `field`."""
    den = rng.randrange(1, 5)
    return Fraction(rng.randrange(-bound, bound + 1),
                    1 if field.p and den % field.p == 0 else den)


def random_rows(rng, field, nrows, ncols):
    """Rows with Fraction entries (reduced mod p over F_p), about half of
    them zero, plus zero rows, repeated rows and combinations of rows."""
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.15 or not rows:
            row = [random_fraction(rng, field, 5) if rng.random() < 0.5 else 0
                   for _ in range(ncols)]
        elif roll < 0.25:
            row = [0] * ncols
        elif roll < 0.4:
            row = list(rng.choice(rows))
        else:
            a, b = rng.choice(rows), rng.choice(rows)
            c = field.coerce(random_fraction(rng, field, 3))
            row = [field.add(x, field.mul(c, y)) for x, y in zip(a, b)]
        rows.append([field.coerce(x) for x in row])
    return rows


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7), GF(101)], ids=repr)
def test_sparse_echelon_matches_dense_reference(field):
    rng = random.Random(3605 + field.characteristic)
    for _ in range(60):
        width = rng.randrange(1, 12)
        rows = random_rows(rng, field, rng.randrange(0, 14), width)
        ech, ref = Echelon(field, width), DenseEchelon(field, width)
        for i, row in enumerate(rows):
            # dense and sparse inputs are the same vector to the engine
            vec = row if i % 2 else {k: x for k, x in enumerate(row) if x}
            assert ech.add(vec) == ref.add(row)
            assert ech.pivots == ref.pivots
            assert [dense(r, width, field) for r in ech.rows] == ref.rows
            assert ech.rank == ref.rank
        for probe in random_rows(rng, field, 6, width) + rows[:3]:
            assert dense(ech.reduce(probe), width, field) == ref.reduce(probe)
            assert ech.contains(probe) == ref.contains(probe)


def assert_reduced_echelon(vectors):
    """Each vector has leading coefficient 1 at its pivot, the least key in
    its support; the pivots increase and no other vector uses one."""
    pivots = [min(v) for v in vectors]
    assert pivots == sorted(set(pivots))
    for v, p in zip(vectors, pivots):
        assert v[p] == 1
        assert all(p not in w for w in vectors if w is not v)


def check_row_reduce_against_dense_reference(field, spread):
    """With `spread`, coordinate c is the key keys[c] of an increasing,
    gapped sequence, as the socle and relation kernels pass theirs."""
    rng = random.Random(707 + field.characteristic)
    for _ in range(60):
        ncols = rng.randrange(1, 10)
        rows = random_rows(rng, field, rng.randrange(1, 12), ncols)
        m = ExactMatrix.from_rows(rows, field)
        keys = (sorted(rng.sample(range(3 * ncols + 5), ncols)) if spread
                else list(range(ncols)))
        kernel = row_reduce(field, {keys[c]: col for c, col in enumerate(m.cols)})
        rank, ref_kernel, pivots = dense_row_reduce(m)
        assert ncols - kernel.rank == rank == m.rank()
        assert Echelon(field, ncols, rows).pivots == pivots
        assert kernel == Echelon(field, keys[-1] + 1, [
            {keys[c]: x for c, x in enumerate(v) if x} for v in ref_kernel])
        assert_reduced_echelon(kernel.rows)
        for v in kernel.rows:
            assert not apply_column(m, {keys.index(k): x for k, x in v.items()})


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=repr)
def test_row_reduce_matches_dense_reference(field):
    check_row_reduce_against_dense_reference(field, spread=False)


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=repr)
def test_row_reduce_on_spread_keys_matches_dense_reference(field):
    check_row_reduce_against_dense_reference(field, spread=True)


def test_echelon_restrict_reads_the_span_on_a_coordinate_subset():
    ech = Echelon(QQ, 5, [{0: 1, 2: 3, 4: 1}, {1: 1, 2: 2}, {3: 1, 4: 5}])
    # on coordinates (2, 4): the rows read (3, 1), (2, 0) and (0, 5)
    part = ech.restrict([2, 4])
    assert (part.width, part.rank, part.pivots) == (2, 2, [0, 1])
    assert part == Echelon(QQ, 2, [[1, 0], [0, 1]])
    # a row vanishing on the subset contributes nothing
    assert ech.restrict([3]) == Echelon(QQ, 1, [[1]])
    assert Echelon(QQ, 5, [{0: 1}]).restrict([1, 2]).rank == 0
    rng = random.Random(31)
    for _ in range(30):
        width = rng.randrange(1, 8)
        rows = random_rows(rng, QQ, rng.randrange(0, 6), width)
        coords = sorted(rng.sample(range(width), rng.randrange(0, width + 1)))
        assert Echelon(QQ, width, rows).restrict(coords) == Echelon(
            QQ, len(coords), [[row[k] for k in coords] for row in rows])


def test_echelon_contains_space():
    big = Echelon(QQ, 3, [[1, 1, 0], [0, 0, 1]])
    assert big.contains_space(Echelon(QQ, 3, [[2, 2, 5]]))
    assert big.contains_space(Echelon(QQ, 3))
    assert big.contains_space(big)
    assert not big.contains_space(Echelon(QQ, 3, [[1, 0, 0]]))
    assert not Echelon(QQ, 3).contains_space(big)


def test_echelon_equality_is_equality_of_spans():
    a = Echelon(QQ, 3, [[1, 2, 0], [0, 1, 1]])
    assert a == Echelon(QQ, 3, [[1, 3, 1], [1, 1, -1]])
    assert a != Echelon(QQ, 3, [[1, 2, 0]])
    # the same rows over another field or in another width differ
    assert Echelon(GF(5), 2, [[1, 0]]) != Echelon(GF(7), 2, [[1, 0]])
    assert Echelon(GF(5), 2, []) != Echelon(GF(7), 2, [])
    assert Echelon(QQ, 2, [{0: 1}]) != Echelon(QQ, 3, [{0: 1}])
    assert Echelon(QQ, 2) != Echelon(QQ, 3)
    assert Echelon(QQ, 2) != [[]]


def test_echelon_rejects_dense_vector_of_wrong_length():
    with pytest.raises(FieldMismatchError):
        Echelon(QQ, 3).add([1, 2])


def test_field_mismatch_detected():
    with pytest.raises(FieldMismatchError):
        GF(5).coerce("nope")
    with pytest.raises(FieldMismatchError):
        QQ.coerce("nope")


def test_scalar_field_axioms_random():
    rng = random.Random(99)
    for field in (QQ, GF(7), GF(2)):
        for _ in range(60):
            a = field.coerce(rng.randrange(-9, 10))
            b = field.coerce(rng.randrange(-9, 10))
            c = field.coerce(rng.randrange(-9, 10))
            assert field.add(a, field.neg(a)) == field.zero()
            if not field.is_zero(a):
                assert field.mul(a, field.inv(a)) == field.one()
            assert field.mul(a, field.add(b, c)) == \
                field.add(field.mul(a, b), field.mul(a, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))


def test_rationals_stay_reduced():
    f = QQ.coerce((6, -4))
    assert f == Fraction(-3, 2)
    assert f.denominator > 0
    r = GF(5).coerce(Fraction(1, 2))  # 1/2 = 3 mod 5
    assert r == 3


def is_q_scalar(x) -> bool:
    """x is a scalar of QQ as the package stores it: an exact int, or a
    Fraction that is not integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def test_integral_rationals_are_ints():
    # the unit cases of the representation: a bool is coerced to an int
    # (str(True) is "True"), an integral Fraction to its numerator, and
    # every operation returns an int where the value is integral
    assert type(QQ.coerce(True)) is int and str(QQ.coerce(True)) == "1"
    assert type(QQ.coerce(False)) is int
    assert type(GF(5).coerce(True)) is int
    two = QQ.coerce(Fraction(4, 2))
    assert two == 2 and type(two) is int
    assert type(QQ.coerce((6, 3))) is int and QQ.coerce((6, 3)) == 2
    for a in (1, -1):
        assert QQ.inv(a) == a and type(QQ.inv(a)) is int
    assert QQ.inv(Fraction(-1, 3)) == -3 and type(QQ.inv(Fraction(-1, 3))) is int
    assert QQ.inv(2) == Fraction(1, 2)
    half, two_thirds = Fraction(1, 2), Fraction(2, 3)
    results = [QQ.zero(), QQ.one(), QQ.add(half, half), QQ.mul(two_thirds, Fraction(3, 2)),
               QQ.div(two_thirds, two_thirds), QQ.neg(QQ.one()), QQ.add(two_thirds, 1),
               QQ.mul(half, 3)]
    assert results == [0, 1, 1, 1, 1, -1, Fraction(5, 3), Fraction(3, 2)]
    assert all(is_q_scalar(x) for x in results)
    rng = random.Random(1804)
    for _ in range(200):
        a, b = (QQ.coerce(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)))
                for _ in range(2))
        values = [a, b, QQ.add(a, b), QQ.mul(a, b), QQ.neg(a)]
        if b:
            values += [QQ.inv(b), QQ.div(a, b)]
        assert all(is_q_scalar(x) for x in values), values


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_echelon_reads_ints_as_scalars(field):
    # an int entry skips `coerce`, so over F_p it must still be read as its
    # residue: raw ints, negative or past p, give the coerced rows
    rng = random.Random(1806 + field.p)
    for _ in range(40):
        width = rng.randrange(1, 7)
        rows = [[rng.randrange(-12, 13) for _ in range(width)]
                for _ in range(rng.randrange(1, 6))]
        ech = Echelon(field, width, rows)
        assert ech == Echelon(field, width, [[field.coerce(x) for x in row] for row in rows])
        assert all(is_q_scalar(x) if not field.p else type(x) is int and 0 < x < field.p
                   for row in ech.rows for x in row.values())
        probe = [rng.randrange(-12, 13) for _ in range(width)]
        assert ech.reduce(probe) == ech.reduce([field.coerce(x) for x in probe])


def cancelling_rows(rng, nrows, ncols):
    """Rows over Q that mix integers with fractions whose products are
    often integral (2/3 * 3/2, 1/2 * 2, ...), plus sums of scaled rows."""
    entries = [0, 0, 0, 1, -1, 2, 3, Fraction(2, 3), Fraction(3, 2), Fraction(-3, 2),
               Fraction(1, 2), Fraction(4, 3), Fraction(3, 4)]
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.4:
            a, b = rng.choice(rows), rng.choice(rows)
            c, d = rng.choice(entries[3:]), rng.choice(entries[3:])
            rows.append([c * x + d * y for x, y in zip(a, b)])
        else:
            rows.append([rng.choice(entries) for _ in range(ncols)])
    return rows


def test_echelon_and_row_reduce_match_fraction_arithmetic():
    # Echelon and row_reduce over QQ against the dense references run in
    # the former arithmetic, where every scalar is a Fraction: the same
    # pivots, rows, residuals and kernels, and every value the package
    # stores is an int or a non-integral Fraction.  Inputs come as
    # Fractions (integral ones too) and as ints.
    rng = random.Random(1805)
    old = FractionField()
    integral = fractional = 0
    for trial in range(80):
        width = rng.randrange(1, 9)
        rows = cancelling_rows(rng, rng.randrange(1, 10), width)
        if trial % 2:
            rows = [[old.coerce(x) for x in row] for row in rows]
        ech, ref = Echelon(QQ, width), DenseEchelon(old, width)
        for row in rows:
            assert ech.add(row) == ref.add(row)
            assert ech.pivots == ref.pivots
            assert [dense(r, width, QQ) for r in ech.rows] == ref.rows
            assert all(is_q_scalar(x) for r in ech.rows for x in r.values()), ech.rows
        for probe in rows + cancelling_rows(rng, 4, width):
            residual = ech.reduce(probe)
            assert dense(residual, width, QQ) == ref.reduce(probe)
            assert all(is_q_scalar(x) for x in residual.values()), residual
        m = ExactMatrix.from_rows(rows, old)
        kernel = row_reduce(QQ, m.images())
        rank, ref_kernel, pivots = dense_row_reduce(m)
        assert width - kernel.rank == rank
        assert [dense(r, width, QQ) for r in kernel.rows] == ref_kernel
        assert all(is_q_scalar(x) for r in kernel.rows for x in r.values()), kernel.rows
        values = [x for r in ech.rows + kernel.rows for x in r.values()]
        integral += sum(type(x) is int and x not in (0, 1) for x in values)
        fractional += sum(type(x) is Fraction for x in values)
    # both kinds of value occur, integral ones other than the pivots' 1s
    assert integral >= 50 and fractional >= 50, (integral, fractional)


def test_prime_check():
    with pytest.raises(ValueError):
        GroundField(6)
    with pytest.raises(ValueError):
        GF(1)


class QuotientMap:
    """Projection of k^n onto the coordinates complementary to a subspace:
    the non-pivot columns of its reduced echelon form, as `quiver_of`
    reads them.  `apply` kills the subspace and is onto, `lift` is the
    section placing quotient coordinates at the free columns.  Quotient
    vectors are dense lists."""

    def __init__(self, field, ambient_dim, sub_basis):
        self.field = field
        self.ambient_dim = ambient_dim
        self.echelon = Echelon(field, ambient_dim)
        for v in sub_basis:
            self.echelon.add(v)
        self.free_columns = self.echelon.free_columns()
        self.quotient_dim = len(self.free_columns)

    def apply(self, vec) -> list:
        res, zero = self.echelon.reduce(vec), self.field.zero()
        return [res.get(j, zero) for j in self.free_columns]

    def lift(self, qvec) -> list:
        f = self.field
        out = [f.zero()] * self.ambient_dim
        for j, x in zip(self.free_columns, qvec):
            out[j] = f.coerce(x)
        return out


def subspace_quotient(ambient_dim, sub_basis, field=QQ) -> QuotientMap:
    return QuotientMap(field, ambient_dim, sub_basis)


def test_subspace_quotient_examples():
    q = subspace_quotient(2, [[0, 1]], QQ)
    assert q.quotient_dim == 1
    assert q.apply([5, 7]) == [Fraction(5)]  # keeps the first coordinate
    assert q.apply([0, 3]) == [Fraction(0)]

    q = subspace_quotient(3, [], QQ)
    assert q.quotient_dim == 3
    assert q.apply([1, 2, 3]) == [Fraction(1), Fraction(2), Fraction(3)]

    # A/rad for the dual numbers: ambient (e, x), radical span{x}
    q = subspace_quotient(2, [[0, 1]], QQ)
    assert q.quotient_dim == 1


def test_subspace_quotient_dimension_mismatch():
    with pytest.raises(FieldMismatchError):
        subspace_quotient(2, [[1, 2, 3]], QQ)


def test_quotient_projection_is_onto_and_kills_subspace():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 6)
        k = rng.randrange(0, n + 1)
        basis = [[Fraction(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(k)]
        q = subspace_quotient(n, basis, QQ)
        for v in basis:
            assert all(x == 0 for x in q.apply(v))
        # the section composed with the projection is the identity
        for j in range(q.quotient_dim):
            unit = [Fraction(0)] * q.quotient_dim
            unit[j] = Fraction(1)
            assert q.apply(q.lift(unit)) == unit


# -- integer polynomials -----------------------------------------------------


def x_poly(*coeffs):
    return IntPolynomial(coeffs)


def test_int_polynomial_basics():
    p = x_poly(1, 2, 1)
    assert str(p) == "1 + 2*x + x^2"
    assert p.degree == 2
    assert sum(c * 3 ** i for i, c in enumerate(p.coeffs)) == 16  # p(3)
    assert x_poly() == IntPolynomial([0, 0])
    assert x_poly().degree == -1
    assert (x_poly(1, 1) * x_poly(-1, 1)) == x_poly(-1, 0, 1)
    assert exact_div(x_poly(1, 0, 1), x_poly(1)) == x_poly(1, 0, 1)
    assert exact_div(x_poly(1, 1) * x_poly(2, 3, 4), x_poly(1, 1)) == x_poly(2, 3, 4)
    with pytest.raises(ArithmeticError):
        exact_div(x_poly(1, 0, 1), x_poly(1, 1))


def test_poly_det_trivial_cases():
    identity = [[x_poly(int(i == j)) for j in range(3)] for i in range(3)]
    assert poly_det(identity) == x_poly(1)
    diag = [[x_poly(1, 1), x_poly()], [x_poly(), x_poly(1, 1)]]
    assert poly_det(diag) == x_poly(1, 2, 1)


def test_poly_det_cofactor_example():
    # [[1+x^2, x], [x, 1+x^2]]: by hand (1+x^2)^2 - x^2 = 1 + x^2 + x^4
    m = [[x_poly(1, 0, 1), x_poly(0, 1)],
         [x_poly(0, 1), x_poly(1, 0, 1)]]
    assert poly_det(m) == x_poly(1, 0, 1, 0, 1)


def _cofactor_det(entries):
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = IntPolynomial()
    for j in range(n):
        minor = [[entries[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = entries[0][j] * _cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_poly_det_matches_cofactor_expansion_random():
    rng = random.Random(424242)
    for _ in range(25):
        n = rng.randrange(1, 5)
        entries = [[IntPolynomial([rng.randrange(-3, 4)
                                   for _ in range(rng.randrange(0, 4))])
                    for _ in range(n)] for _ in range(n)]
        assert poly_det(entries) == _cofactor_det(entries)


def test_poly_det_needs_pivot_swap():
    m = [[x_poly(), x_poly(1)], [x_poly(1), x_poly()]]
    assert poly_det(m) == x_poly(-1)


def _random_poly(rng, degree, huge):
    """A polynomial of degree at most `degree` with small coefficients,
    some of them near +-2^70 when `huge`."""
    def coeff():
        if huge and rng.random() < 0.3:
            return rng.choice((-1, 1)) * (2 ** 70 + rng.randrange(-3, 4))
        return rng.randrange(-3, 4) if rng.random() < 0.7 else 0
    return IntPolynomial([coeff() for _ in range(rng.randrange(0, degree + 2))])


def test_poly_det_matches_the_polynomial_bareiss_random():
    rng = random.Random(2323)
    for n in range(7):
        for degree in range(6):
            for huge in (False, True):
                for _ in range(4):
                    m = [[_random_poly(rng, degree, huge) for _ in range(n)]
                         for _ in range(n)]
                    assert poly_det(m) == poly_det_by_polynomial_bareiss(m), m


def test_poly_det_matches_the_polynomial_bareiss_on_special_shapes():
    x = x_poly
    cases = [
        [],
        # one term whose coefficient is the bound M itself, a power of two
        [[x(4)]], [[x(0, 0, 0, -8)]], [[x(2), x()], [x(), x(0, 2)]],
        # coefficients of det C reaching M = 4: (1 + x)^2 and (1 - x)^2
        [[x(1, 1), x()], [x(), x(1, 1)]], [[x(1, -1), x()], [x(), x(1, -1)]],
        # singular: a zero row, two equal rows, and a rank-1 polynomial matrix
        [[x(1, 2), x(3)], [x(), x()]],
        [[x(1, 2), x(3), x(0, 1)], [x(5), x(-1, 1), x(2)], [x(1, 2), x(3), x(0, 1)]],
        [[x(1, 1), x(1, 0, -1)], [x(2), x(2, -2)]],
        # pivot swaps, first and later
        [[x(), x(1)], [x(1), x()]],
        [[x(), x(), x(2, 1)], [x(), x(1, -1), x()], [x(0, 3), x(), x()]],
        [[x(1), x(1), x(1)], [x(1), x(1), x(0, 1)], [x(0, 1), x(1), x()]],
        # negative leading coefficients and a negative determinant
        [[x(1, -1), x(0, -2)], [x(3, 0, -1), x(-1, -1)]],
        [[x(0, -1), x(-1)], [x(1), x(0, 0, -5)]],
    ]
    for m in cases:
        assert poly_det(m) == poly_det_by_polynomial_bareiss(m), m
    assert poly_det([[x(4)]]) == x(4)
    assert poly_det(cases[4]) == x(1, 2, 1)
    assert poly_det(cases[5]) == x(1, -2, 1)
    assert poly_det(cases[8]) == x()
    assert poly_det(cases[9]) == x(-1)


def test_sparse_rank_mod_p():
    eng = SparseRank(3)
    assert eng.add({0: 1, 1: 2})
    assert not eng.add({0: 2, 1: 4})  # same line mod 3
    assert eng.add({1: 1})
    assert eng.rank == 2


def test_sparse_rank_builds_a_deferred_pivot_as_add_stores_it():
    # a deferred column is built the first time a reduction meets its key,
    # with its content divided out over Q and its leading entry 1 over F_p;
    # a column that does not lead at its key, or an F_p pivot not led by 1,
    # raises instead of reducing forever
    col = {3: 4, 5: -6, 8: 2}
    for p in (0, 5):
        ref = SparseRank(p)
        ref.add(col)
        eng = SparseRank(p, {("u",): col}.__getitem__)
        eng.pivots[3] = ("u",)
        eng.rank += 1
        assert (eng.rank, eng.pivots) == (1, {3: ("u",)})
        assert not eng.add({3: 2, 5: -3, 8: 1})
        assert eng.pivots == ref.pivots
    eng = SparseRank(0, {("u",): col}.__getitem__)
    eng.pivots[5] = ("u",)
    with pytest.raises(ValueError, match="does not lead"):
        eng.add({5: 1})
    eng = SparseRank(5)
    eng.pivots[3] = {3: 2, 4: 1}
    with pytest.raises(ValueError, match="not led by 1"):
        eng.add({3: 1})
