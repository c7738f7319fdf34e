"""Exact scalars, sparse elimination and integer-polynomial determinants.

The ground field is either Q or F_p for a prime p.  A scalar of Q is an
exact `int` when it is integral and a `fractions.Fraction` (in lowest
terms, with denominator > 1) otherwise, so the 1s and -1s that fill most
tables cost integer arithmetic; `Fraction(n) == n` with equal hashes, and
both print alike.  A scalar of F_p is an int in [0, p).  Everything in this
module is exact; no floating point is used anywhere in the package.

Vectors are sparse dicts {coordinate: value}, and there is one row type.
`combine` is the one sparse linear-combination kernel: the products of
the algebras, their associativity proof, the arrow layers, the path values
of T(A)'s relations and every row operation of `Echelon` are all
combinations of rows, so no module above this one normalizes a scalar.
`Echelon` holds a subspace in reduced echelon form: every span, socle,
radical power, ideal slice and kernel of the package is one.  Rows that
are already reduced (a kernel read off one elimination, a subset or a
monotone relabelling of reduced rows) are placed with `Echelon.of_reduced`
instead of being eliminated again.  `row_reduce` reads a linear map as the
dict of its sparse images and returns its kernel, placed that way, from
one elimination of the map's rows.  `SparseRank` only counts the rank of
integer columns fed one at a time, in one elimination loop for both
fields: over Q by integer cross multiplication, over F_p on residues with
pivots led by 1.  It serves the large bar-complex boundaries of the
homology oracle, whose callers scale their columns to integers once and
build a column only when elimination needs it.

`poly_det` takes the determinant of a matrix C over Z[x] by Kronecker
substitution.  The coefficients of det C are bounded in absolute value by
M = prod_i sum_j ||C_ij||_1, since the l1 norm of a product of
polynomials is at most the product of their l1 norms.  With b =
M.bit_length() + 1, so that 2^(b-1) > M, the entries are evaluated at
x = 2^b by shifts, one fraction-free Bareiss elimination over Z gives
det C(2^b), and its balanced base-2^b digits, each in [-2^(b-1), 2^(b-1)),
are the coefficients: that range holds every coefficient and a balanced
expansion is unique.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd


class FieldMismatchError(ValueError):
    """Objects that should share one ground field do not."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _rational(x):
    """The Q scalar x: its numerator if x is a Fraction with denominator 1."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class GroundField:
    """Descriptor for Q (characteristic 0) or F_p, owning scalar arithmetic.

    All code manipulating scalars goes through the field object, so callers
    never branch on the characteristic themselves.  Every method returns a
    scalar of the field in the one representation the module docstring
    gives: over Q an `int` when integral, never a Fraction with denominator
    1 nor a `bool`.  `combine` inlines the same arithmetic for sparse rows.
    """

    __slots__ = ("p",)

    def __init__(self, characteristic: int = 0):
        if characteristic and not _is_prime(characteristic):
            raise ValueError(
                f"field characteristic must be 0 or a prime, got {characteristic}")
        self.p = characteristic

    @property
    def characteristic(self) -> int:
        return self.p

    def __eq__(self, other):
        return isinstance(other, GroundField) and self.p == other.p

    def __hash__(self):
        return hash(("GroundField", self.p))

    def __repr__(self):
        return "QQ" if self.p == 0 else f"GF({self.p})"

    def coerce(self, value):
        """Turn an int, Fraction or (num, den) pair into a scalar of this field."""
        if isinstance(value, tuple):
            num, den = value
            return self.div(self.coerce(num), self.coerce(den))
        if self.p == 0:
            if isinstance(value, int):
                return int(value)  # also turns a bool into 0 or 1
            if isinstance(value, Fraction):
                return _rational(value)
            raise FieldMismatchError(f"cannot coerce {value!r} into QQ")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.div(value.numerator % self.p, value.denominator % self.p)
        raise FieldMismatchError(f"cannot coerce {value!r} into GF({self.p})")

    def zero(self):
        return 0

    def one(self):
        return 1

    def is_zero(self, a) -> bool:
        return not a

    def add(self, a, b):
        return _rational(a + b) if self.p == 0 else (a + b) % self.p

    def mul(self, a, b):
        return _rational(a * b) if self.p == 0 else (a * b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return _rational(1 / Fraction(a)) if self.p == 0 else pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))


QQ = GroundField(0)


def GF(p: int) -> GroundField:
    return GroundField(p)


# ---------------------------------------------------------------------------
# sparse row spaces


def combine(field: GroundField, terms, out=None) -> dict:
    """The sparse linear combination out + sum c * v over the (c, v) in
    `terms`, accumulated into `out` (a fresh dict when None) and returned.
    The arithmetic is that of `GroundField.add` and `mul`, inlined: over
    F_p every entry is reduced mod p, over Q an integral Fraction becomes
    an int, and an entry that cancels is removed."""
    p = field.p
    if out is None:
        out = {}
    for c, v in terms:
        for k, ck in v.items():
            x = out.get(k, 0) + c * ck
            if p:
                x %= p
            elif type(x) is not int and x.denominator == 1:
                x = x.numerator
            if x:
                out[k] = x
            else:
                out.pop(k, None)
    return out


class Echelon:
    """A subspace of k^width kept in reduced echelon form over a ground field.

    Rows are sparse dicts {column: value}.  The pivot of a row is its first
    nonzero column, normalized to 1 and cleared in every other row, so the
    rows are the reduced echelon basis of the span and every result is
    canonical: two echelons over one field and width are equal iff they
    span the same subspace.  Vectors may be given as dicts or as dense
    lists of length `width`; the work per operation is proportional to the
    nonzeros it touches, and each row operation is one `combine`.  The
    column index of `add` lists, for each column, a superset of the rows
    that use it.  Every span, socle, radical power, kernel and ideal slice
    of the package is one; the bar-complex ranks use `SparseRank`.
    """

    def __init__(self, field: GroundField, width: int, vectors=()):
        self.field = field
        self.width = width
        self.rows: list[dict] = []    # ordered by pivot
        self.pivots: list[int] = []
        self._row_at: dict = {}       # pivot column -> its row
        self._holders: dict = {}      # other column -> pivots of rows that may use it
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _sparse(self, vec) -> dict:
        """A fresh sparse copy of `vec` with coerced, nonzero entries."""
        if isinstance(vec, dict):
            items = vec.items()
        elif len(vec) != self.width:
            raise FieldMismatchError(
                f"vector of length {len(vec)} in ambient dimension {self.width}")
        else:
            items = enumerate(vec)
        coerce, p, out = self.field.coerce, self.field.p, {}
        for k, x in items:
            if x:
                if type(x) is not int:
                    x = coerce(x)
                elif p:
                    x %= p
                if x:
                    out[k] = x
        return out

    def reduce(self, vec) -> dict:
        """Canonical residual of `vec` modulo the current row space:
        v - sum of v[p] * row_p over the pivots p in the support of v,
        combined into the fresh copy of v."""
        v, row_at = self._sparse(vec), self._row_at
        terms = [(-c, row_at[j]) for j, c in v.items() if j in row_at]
        return combine(self.field, terms, v)

    def add(self, vec) -> bool:
        """Insert `vec`; True iff it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        f, j = self.field, min(v)
        if v[j] != 1:
            v = combine(f, ((f.inv(v[j]), v),))
        row_at, holders = self._row_at, self._holders
        # clear j in the rows that may use it; they and j may then use v's columns
        users = [j]
        for i in holders.pop(j, ()):
            d = row_at[i].get(j)
            if d:
                combine(f, ((-d, v),), row_at[i])
                users.append(i)
        for k in v:
            if k != j:
                holders.setdefault(k, set()).update(users)
        at = bisect_left(self.pivots, j)
        self.rows.insert(at, v)
        self.pivots.insert(at, j)
        self._row_at[j] = v
        return True

    @classmethod
    def of_reduced(cls, field: GroundField, width: int, rows) -> "Echelon":
        """The Echelon whose rows are `rows`, which must already be a
        reduced echelon basis listed by ascending pivot: nonzero sparse
        dicts of field scalars, each led by 1 at its pivot, and each pivot
        zero in every other row.  Nothing is eliminated; the pivot and
        column indexes are read off in one pass, the latter exact, and the
        rows are taken over, not copied."""
        out = cls(field, width)
        out.rows = rows = list(rows)
        out.pivots = pivots = [min(row) for row in rows]
        out._row_at = dict(zip(pivots, rows))
        holders = out._holders
        for j, row in zip(pivots, rows):
            for k in row:
                if k != j:
                    holders.setdefault(k, set()).add(j)
        return out

    def copy(self) -> "Echelon":
        """An independent Echelon on the same rows."""
        return Echelon.of_reduced(self.field, self.width,
                                  [dict(row) for row in self.rows])

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def contains_space(self, other: "Echelon") -> bool:
        """True iff the span of `other` lies in this one."""
        return all(self.contains(v) for v in other.rows)

    def restrict(self, coords) -> "Echelon":
        """The span of the rows read on `coords` only, with coordinate c of
        the result standing for `coords[c]`."""
        return Echelon(self.field, len(coords), (
            {c: row[k] for c, k in enumerate(coords) if k in row}
            for row in self.rows))

    def __eq__(self, other):
        return (isinstance(other, Echelon) and self.field == other.field
                and self.width == other.width and self.pivots == other.pivots
                and self.rows == other.rows)

    def __repr__(self):
        return f"<Echelon rank {self.rank} in {self.field!r}^{self.width}>"

    def free_columns(self) -> list[int]:
        """The non-pivot columns, ascending: the coordinates that the
        residuals of `reduce` live on."""
        pivots = set(self.pivots)
        return [k for k in range(self.width) if k not in pivots]


def row_reduce(field: GroundField, images: dict) -> Echelon:
    """The kernel of a linear map, as an `Echelon`.

    `images[k]` is the sparse image {row: value} of coordinate k; the
    result spans {x : sum_k x_k images[k] = 0}, keyed by the caller's own
    coordinates, with width one past the largest of them.  The nonzero
    rows of the map are echelonized with the coordinates in reverse
    order, so that the pivot p of each reduced row is its largest
    coordinate.  A free coordinate j then gives the kernel vector
    e_j - sum over the pivot rows p of row_p[j] e_p, where row_p[j] != 0
    only if j < p: its least coordinate is j, with coefficient 1, and it
    is zero at every other free coordinate.  So these vectors, one per
    free j in ascending order, are already the reduced echelon basis of
    the kernel, and no second elimination is run.
    """
    width = max(images, default=-1) + 1
    top = width - 1
    rows: dict = {}
    for k, image in images.items():
        for r, x in image.items():
            rows.setdefault(r, {})[top - k] = x
    ech = Echelon(field, width, (rows[r] for r in sorted(rows)))
    pivots = {top - q for q in ech.pivots}
    one, neg = field.one(), field.neg
    kernel = {j: {j: one} for j in sorted(images) if j not in pivots}
    for q, row in zip(ech.pivots, ech.rows):
        for k, x in row.items():
            if k != q:
                kernel[top - k][top - q] = neg(x)
    return Echelon.of_reduced(field, width, kernel.values())


class SparseRank:
    """Incremental exact rank of a sparse matrix, fed column by column.

    Columns are dicts of ints, zeros allowed: over Q the caller scales a
    rational matrix to an integer one, which keeps its rank, and over F_p
    entries are read as residues.  Over Q the reduced columns are kept as
    integer vectors with their content divided out, and elimination is
    done by integer cross multiplication.  A pivot whose leading entry is
    +-1 is subtracted without scaling the column; only after a scaling
    step is the bit length of the column checked, and its content divided
    out when an entry is longer than _NORMALIZE_BITS.  Over F_p pivots are
    stored with leading entry 1, so the same loop takes the +-1 branch with
    every entry reduced mod p; a pivot not led by 1 raises ValueError.

    A caller that knows a column's leading index j and that j is not yet a
    pivot can defer the column instead of adding it: it writes a cell, any
    value but None or a dict, into `pivots` at j and counts it in `rank`.
    `build(cell)` makes the column, which is built and stored, as `add`
    would have stored it, the first time a reduction meets j.  A new
    leading index needs no reduction, so the pivots and the rank are those
    of adding every column.
    """

    _NORMALIZE_BITS = 256

    def __init__(self, p: int = 0, build=None):
        self.p = p
        self.pivots: dict = {}  # leading index -> reduced column, or a deferred cell
        self.rank = 0
        self._build = build

    @staticmethod
    def _normalize_content(col: dict) -> dict:
        g = 0
        for x in col.values():
            g = gcd(g, x)
            if g == 1:
                return col
        return {k: x // g for k, x in col.items()}

    def _entries(self, col: dict) -> dict:
        """The nonzero entries of a column, as residues over F_p."""
        p = self.p
        if p:
            return {k: x % p for k, x in col.items() if x % p}
        return {k: x for k, x in col.items() if x}

    def _store(self, j: int, v: dict) -> dict:
        """Store v, nonzero and led by j, as the pivot at j: its content
        divided out over Q, its leading entry scaled to 1 over F_p."""
        p = self.p
        if p:
            inv = pow(v[j], -1, p)
            v = {k: x * inv % p for k, x in v.items()}
        else:
            v = self._normalize_content(v)
        self.pivots[j] = v
        return v

    def _pivot(self, j: int):
        """The reduced column at j, built if it was deferred; None if j is
        not a pivot.  A deferred column that does not lead at j would
        never be cleared at j, so it raises."""
        piv = self.pivots.get(j)
        if piv is not None and type(piv) is not dict:
            v = self._entries(self._build(piv))
            if min(v, default=None) != j:
                raise ValueError(f"the column deferred at {j} does not lead there")
            piv = self._store(j, v)
        return piv

    def add(self, col: dict) -> bool:
        """Insert a column; True iff the rank increased."""
        v, p = self._entries(col), self.p
        while v:
            j = min(v)
            piv = self._pivot(j)
            if piv is None:
                self._store(j, v)
                self.rank += 1
                return True
            a, c = piv[j], v[j]
            scaled = a != 1 and a != -1
            if scaled:
                if p:  # F_p pivots are stored led by 1; no other would clear j
                    raise ValueError(f"the pivot at {j} is not led by 1")
                g = gcd(a, c)
                a, c = a // g, c // g
                v = {k: a * x for k, x in v.items()}
            else:
                c *= a  # v - (c / a) piv, with 1 / a = a
            for k, y in piv.items():
                z = v.get(k, 0) - c * y
                if p:
                    z %= p
                if z:
                    v[k] = z
                else:
                    del v[k]
            if (scaled and v and max(abs(x) for x in v.values()).bit_length()
                    > self._NORMALIZE_BITS):
                v = self._normalize_content(v)
        return False


# ---------------------------------------------------------------------------
# integer polynomials and their determinants


class IntPolynomial:
    """A polynomial in Z[x]; coefficient i is the coefficient of x^i.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out

    def __repr__(self):
        return f"IntPolynomial({self.coeffs})"

    def to_json(self):
        return list(self.coeffs)


POLY_ZERO = IntPolynomial()
POLY_ONE = IntPolynomial((1,))


def poly_det(rows) -> IntPolynomial:
    """Exact determinant in Z[x] of the square matrix C with the given rows
    of IntPolynomial entries, by Kronecker substitution: one Bareiss
    elimination over Z on C(2^b), whose value is read back as the
    coefficients of det C.

    The l1 norm (sum of absolute coefficients) is submultiplicative under
    products of polynomials, so every coefficient of det C is at most
    M = prod_i sum_j ||C_ij||_1 in absolute value.  With b =
    M.bit_length() + 1, 2^(b-1) > M, and the base-2^b digits of
    det C(2^b) = sum_i d_i 2^(b i) taken in [-2^(b-1), 2^(b-1)) are the d_i:
    a balanced digit expansion is unique, and every |d_i| <= M lies in that
    range.  Every division of the Bareiss recurrence is exact over Z.
    """
    n = len(rows)
    if n == 0:
        return POLY_ONE
    bound = 1
    for row in rows:
        bound *= sum(abs(c) for entry in row for c in entry.coeffs)
    b = bound.bit_length() + 1
    a = []
    for row in rows:
        values = []
        for entry in row:
            v = 0  # entry(2^b), by Horner's rule
            for c in reversed(entry.coeffs):
                v = (v << b) + c
            values.append(v)
        a.append(values)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return POLY_ZERO
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            c = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - c * pivot_row[j]) // prev
        prev = pivot
    det = sign * a[n - 1][n - 1]
    base, half = 1 << b, 1 << (b - 1)
    coeffs = []
    # deg det C <= sum_i max_j deg C_ij, so this many digits hold all of it
    for _ in range(sum(max(len(entry.coeffs) for entry in row) for row in rows)):
        d = det & (base - 1)
        if d >= half:
            d -= base
        coeffs.append(d)
        det = (det - d) >> b
    return IntPolynomial(coeffs)
