"""Routines the package no longer needs, kept for tests as references."""

from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import gcd

from trivext.algebra import (AdmissibilityError, AlgebraBuildError,
                             SelfinjectivityCertificate, SelfinjectivityRefusal,
                             SocleData, _pushed, arrow_layers, ideal_slice,
                             loewy_length, radical_chain, socles, span_products)
from trivext.dsl import RelationExpr
from trivext.hochschild import DEFAULT_TUPLE_CAP, _BarData, _Coboundary
from trivext.linalg import (POLY_ONE, POLY_ZERO, QQ, Echelon, FieldMismatchError,
                            GroundField, IntPolynomial, SparseRank, combine, row_reduce)
from trivext.quiver import (PATH_BUDGET, Arrow, Path, PathBudgetExceeded, Quiver,
                           path_layer)
from trivext.trivial_extension import RelationSet, extended_quiver


class FractionField(GroundField):
    """The former arithmetic of QQ: every scalar a `Fraction`, the
    integral ones too."""

    def __init__(self):
        super().__init__(0)

    def coerce(self, value):
        if isinstance(value, tuple):
            num, den = value
            return self.div(self.coerce(num), self.coerce(den))
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise FieldMismatchError(f"cannot coerce {value!r} into QQ")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)


class DimensionCapExceeded(RuntimeError):
    """A chain module is larger than the configured tuple cap."""

    def __init__(self, degree: int, required: int, cap: int):
        self.degree = degree
        self.required = required
        self.cap = cap
        super().__init__(
            f"chain module in degree {degree} needs {required} basis tuples, "
            f"over the cap of {cap}")


class ExactMatrix:
    """Exact matrix over a ground field, stored column-major and sparse:
    `cols[c]` is the image {row: value} of coordinate c."""

    def __init__(self, nrows: int, ncols: int, field=QQ, cols=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols if cols is not None else [{} for _ in range(ncols)]

    @classmethod
    def from_rows(cls, rows, field=QQ) -> "ExactMatrix":
        m = cls(len(rows), len(rows[0]) if rows else 0, field)
        for r, row in enumerate(rows):
            if len(row) != m.ncols:
                raise ValueError("ragged rows")
            for c, x in enumerate(row):
                x = field.coerce(x)
                if x:
                    m.cols[c][r] = x
        return m

    def images(self) -> dict:
        """The columns as `trivext.linalg.row_reduce` reads a linear map."""
        return dict(enumerate(self.cols))

    def get(self, r: int, c: int):
        return self.cols[c].get(r, self.field.zero())

    def is_zero(self) -> bool:
        return all(not c for c in self.cols)

    def rank(self) -> int:
        return Echelon(self.field, self.nrows, self.cols).rank


class TwoLoopSparseRank(SparseRank):
    """The former `SparseRank.add`: one elimination loop for Q and a
    second, `_add_mod_p`, for F_p."""

    def add(self, col: dict) -> bool:
        v = self._entries(col)
        if self.p:
            return self._add_mod_p(v)
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
                g = gcd(a, c)
                a, c = a // g, c // g
                v = {k: a * x for k, x in v.items()}
            else:
                c *= a  # v - (c / a) piv, with 1 / a = a
            for k, y in piv.items():
                z = v.get(k, 0) - c * y
                if z:
                    v[k] = z
                else:
                    del v[k]
            if (scaled and v and max(abs(x) for x in v.values()).bit_length()
                    > self._NORMALIZE_BITS):
                v = self._normalize_content(v)
        return False

    def _add_mod_p(self, v: dict) -> bool:
        p = self.p
        while v:
            j = min(v)
            piv = self._pivot(j)
            if piv is None:
                self._store(j, v)
                self.rank += 1
                return True
            c = v[j]
            for k, y in piv.items():
                z = (v.get(k, 0) - c * y) % p
                if z:
                    v[k] = z
                else:
                    del v[k]
            if j in v:  # a pivot not led by 1 would meet j forever
                raise ValueError(f"the pivot at {j} is not led by 1")
        return False


class ExactIndexEchelon(Echelon):
    """The former `Echelon.add`: a clearing loop of its own, beside
    `combine`, that keeps the column index exact, adding a pivot under a
    column when its row gains the column and discarding it when the row
    loses it."""

    def add(self, vec) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        f, j = self.field, min(v)
        if v[j] != 1:
            c = f.inv(v[j])
            v = {k: f.mul(c, x) for k, x in v.items()}
        p, holders = f.p, self._holders
        # clear column j in the rows that use it
        for i in holders.pop(j, ()):
            row = self._row_at[i]
            d = row[j]
            for k, b in v.items():
                x = row.get(k, 0) - d * b
                if p:
                    x %= p
                elif type(x) is not int and x.denominator == 1:
                    x = x.numerator
                if not x:
                    del row[k]
                    if k != j:
                        holders[k].discard(i)
                elif k not in row:
                    row[k] = x
                    holders.setdefault(k, set()).add(i)
                else:
                    row[k] = x
        for k in v:
            if k != j:
                holders.setdefault(k, set()).add(j)
        at = bisect_left(self.pivots, j)
        self.rows.insert(at, v)
        self.pivots.insert(at, j)
        self._row_at[j] = v
        return True


def apply_column(m, col: dict) -> dict:
    """The product of the exact matrix `m` with a sparse vector
    {column: value}."""
    f = m.field
    out: dict = {}
    for c, x in col.items():
        for r, y in m.cols[c].items():
            v = f.add(out.get(r, f.zero()), f.mul(x, y))
            if v:
                out[r] = v
            else:
                out.pop(r, None)
    return out


def key(data, tup) -> int:
    """Mixed-radix number of a tuple (b_0, s_1, ..., s_m) of `data`, a
    `_BarData`: increasing in lexicographic order, and the negated row key
    of `boundary_columns`, `coboundary_columns` and `_Coboundary`."""
    out = tup[0]
    for s in tup[1:]:
        out = out * data.dbar + s
    return out


def boundary_columns(data, n: int):
    """The former `_BarData.columns`: yield the boundary column of every
    degree-n tuple of `data`, in the order of `tuples`, with the integer
    entries of `integer_tables` (zeros not dropped) keyed by minus the
    mixed-radix number of degree-(n-1) tuples (see `key`)."""
    _scale, first, mid, wrap = data.integer_tables
    place = [data.dbar ** (n - 1 - i) for i in range(n)]  # of slot i in C_{n-1}
    top = place[0]

    def shifted(table, shift, sign):
        return [[[(-k * shift, sign * c) for k, c in prod] for prod in row]
                for row in table]

    first = shifted(first, top, 1)
    # mid[i][s][t]: face i, merging slots i and i + 1 into slot i
    mid = [None] + [shifted(mid, place[i], (-1) ** i) for i in range(1, n)]
    wrap = shifted(wrap, top, (-1) ** n)
    for tup in tuples(data, n):
        b0 = tup[0]
        # head[i]: minus the key of b_0, s_1, ..., s_i in their own places
        head = [-b0 * top]
        for i in range(1, n):
            head.append(head[-1] - tup[i] * place[i])
        # tail[i]: minus the key of s_i, ..., s_n moved one place left
        tail = [0] * (n + 2)
        for i in range(n, 1, -1):
            tail[i] = tail[i + 1] - tup[i] * place[i - 1]
        col = {}
        base = tail[2]
        for k, c in first[b0][tup[1]]:
            col[base + k] = c
        for i in range(1, n):
            base = head[i - 1] + tail[i + 2]
            for k, c in mid[i][tup[i]][tup[i + 1]]:
                k += base
                col[k] = col.get(k, 0) + c
        base = head[n - 1] + b0 * top
        for k, c in wrap[tup[n]][b0]:
            k += base
            col[k] = col.get(k, 0) + c
        yield col


def boundary_rank(data, n: int) -> int:
    """The former `_boundary_rank`: rank b_n from every boundary column."""
    eng = SparseRank(data.B.field.characteristic)
    for col in boundary_columns(data, n):
        if col:
            eng.add(col)
    return eng.rank


def coboundary_columns(data, n: int, cleared):
    """The former `_BarData.coboundaries`: yield the column delta_n(u) of
    every degree-(n-1) tuple u of `data` whose row key is not in `cleared`,
    in the order of `tuples`, each column built in full: the integer
    coefficient of u in the boundary of each degree-n tuple (zeros not
    dropped), keyed by minus the mixed-radix number of the coface (see
    `key`)."""
    first, mid, wrap = data.cofaces
    P = data.dbar
    place = [P ** (n - 1 - i) for i in range(n)]  # of entry i of u
    top = P * place[0]                            # of b_0 in C_n

    def shifted(table, key, sign):
        return [[(-key(j, l), sign * c) for j, l, c in cof] for cof in table]

    first = shifted(first, lambda b0, s: b0 * top + s * place[0], 1)
    # mid[i]: face i, u_i split into the entries i and i + 1 of the coface
    mid = [None] + [shifted(mid, lambda s, t, i=i: s * place[i - 1] + t * place[i],
                            (-1) ** i) for i in range(1, n)]
    wrap = shifted(wrap, lambda s, b0: b0 * top + s, (-1) ** n)
    for u in tuples(data, n - 1):
        key = sum(x * p for x, p in zip(u, place))
        if -key in cleared:
            continue
        # a coface keeps the entries of u before a face one place
        # higher (times P) and those after it in their own places
        rest = key - u[0] * place[0]
        col = {}
        for k, c in first[u[0]]:
            col[k - rest] = c
        head = 0
        for i in range(1, n):
            head += u[i - 1] * place[i - 1]
            base = (P - 1) * head + key - u[i] * place[i]
            for k, c in mid[i][u[i]]:
                k -= base
                col[k] = col.get(k, 0) + c
        base = P * rest
        for k, c in wrap[u[0]]:
            k -= base
            col[k] = col.get(k, 0) + c
        yield col


def coboundary_rank_by_columns(data, n: int, cleared) -> SparseRank:
    """The former `_coboundary_rank`: every column of delta_n outside
    `cleared` built and added, none deferred; the engine is returned."""
    eng = SparseRank(data.B.field.characteristic)
    for col in coboundary_columns(data, n, cleared):
        if col:
            eng.add(col)
    return eng


def boundary_hh_dims(B, n_max: int, variant: str = "normalized") -> list:
    """The former `hh_dims` without a cap: (n, dim HH_n) for 0 <= n <= n_max
    from the ranks of the boundaries b_1..b_{n_max+1}."""
    data = _BarData(B, variant)
    ranks = {0: 0}
    for n in range(1, n_max + 2):
        ranks[n] = boundary_rank(data, n) if data.chain_dim(n) else 0
    return [(n, data.chain_dim(n) - ranks[n] - ranks[n + 1])
            for n in range(n_max + 1)]


def boundary_matrix(B, n: int, variant: str = "normalized",
                    cap: int = DEFAULT_TUPLE_CAP) -> ExactMatrix:
    """The matrix of the bar boundary from chain degree n to n-1; rows and
    columns follow the order of `_BarData.tuples`."""
    if n < 1:
        raise ValueError("boundary_matrix needs degree n >= 1")
    data = _BarData(B, variant)
    for deg in (n - 1, n):
        size = data.chain_dim(deg)
        if size > cap:
            raise DimensionCapExceeded(deg, size, cap)
    f = B.field
    row_of = {-key(data, t): r for r, t in enumerate(tuples(data, n - 1))}
    scale = data.integer_tables[0]
    m = ExactMatrix(data.chain_dim(n - 1), data.chain_dim(n), f)
    for idx, col in enumerate(boundary_columns(data, n)):
        col = {row_of[k]: f.coerce((c, scale)) for k, c in col.items()}
        m.cols[idx] = {r: c for r, c in col.items() if c}
    return m


def boundary_squares_to_zero(B, n_max: int, variant: str = "normalized",
                             cap: int = DEFAULT_TUPLE_CAP) -> bool:
    """Check b_n . b_{n+1} = 0 as exact matrices for 1 <= n <= n_max."""
    for n in range(1, n_max + 1):
        bn = boundary_matrix(B, n, variant, cap)
        bn1 = boundary_matrix(B, n + 1, variant, cap)
        if any(apply_column(bn, col) for col in bn1.cols):
            return False
    return True


def non_idempotent_span(X) -> Echelon:
    """The former radical: the span of the non-idempotent basis elements,
    which is the radical on every algebra the package builds."""
    return Echelon(X.field, X.dim,
                   [{k: X.field.one()} for k in X.radical_basis_indices()])


def generated_by_closure(X) -> Echelon:
    """The former generation check, on an Echelon so that the span it
    closes can be compared: the span of the idempotents, closed under left
    multiplication by the arrows one product at a time.  The check asked
    whether its rank is dim X."""
    span = Echelon(X.field, X.dim)
    todo = [v for v in (X.basis_element(e) for e in X.idempotent_indices) if span.add(v)]
    while todo:
        v = todo.pop()
        for g in X.arrows:
            w = X.multiply(X.basis_element(g), v)
            if w and span.add(w):
                todo.append(w)
    return span


def radical_chain_by_products(X) -> list:
    """The former radical chain: [X], then the span of the arrows times the
    last entry, until 0."""
    arrows = Echelon(X.field, X.dim, [X.basis_element(g) for g in X.arrows])
    chain = [Echelon(X.field, X.dim, [X.basis_element(k) for k in range(X.dim)])]
    while chain[-1].rank > 0:
        nxt = span_products(X, arrows, chain[-1])
        if nxt.rank >= chain[-1].rank:
            raise AlgebraBuildError(
                "the ideal generated by the arrows is not nilpotent; "
                "the algebra is not of the promised shape")
        chain.append(nxt)
    return chain


def radical_chain_by_layers(X) -> list:
    """The former `radical_chain`: [X], then each power rebuilt from the
    rows of all the deeper arrow layers."""
    layers = arrow_layers(X)
    if len(layers) > X.dim:
        raise AlgebraBuildError(
            "the ideal generated by the arrows is not nilpotent; "
            "the algebra is not of the promised shape")
    return [Echelon(X.field, X.dim, [X.basis_element(k) for k in range(X.dim)])] + [
        Echelon(X.field, X.dim, [v for L in layers[k:] for v in L.rows])
        for k in range(1, len(layers) + 1)]


def generation_by_layer_walk(X) -> bool:
    """The former `FDAlgebra.check_generation`: the rows of every arrow
    layer span X."""
    return Echelon(X.field, X.dim, [v for L in arrow_layers(X) for v in L.rows]).rank == X.dim


def arrow_layers_by_every_product(X) -> list:
    """The former `arrow_layers`: every g v over the arrows g and the rows
    v of the last layer is multiplied out over the whole arrow row, the
    empty entries of T[g] and the products that vanish included."""
    f, d = X.field, X.dim
    rows = [X.table[g] for g in X.arrows]
    layers = [Echelon(f, d, [X.basis_element(e) for e in X.idempotent_indices])]
    while len(layers) <= d:
        layer = Echelon(f, d, filter(None, (combine(f, ((c, Tg[k]) for k, c in v.items()))
                                            for Tg in rows for v in layers[-1].rows)))
        if not layer.rank:
            break
        layers.append(layer)
    return layers


def annihilator_on(X, columns, left=True, right=True) -> Echelon:
    """The former `_annihilator`: the vectors on the given coordinate set
    that every arrow representative kills by multiplication on the chosen
    sides."""
    f, T, d = X.field, X.table, X.dim
    if not X.arrows:
        return Echelon(f, d, [{k: f.one()} for k in columns])
    blocks = [(g, side) for g in X.arrows
              for side in (("L",) if left and not right else
                           ("R",) if right and not left else ("L", "R"))]
    return Echelon(f, d, row_reduce(f, {
        k: {off * d + r: x for off, (a, side) in enumerate(blocks)
            for r, x in (T[a][k] if side == "L" else T[k][a]).items()}
        for k in columns}).rows)


def row_reduce_by_two_eliminations(field, images) -> Echelon:
    """The former `row_reduce`: the rows of the map echelonized in the
    order of the coordinates, and the kernel vector of each free
    coordinate j, e_j - sum_p row_p[j] e_p, added to a second Echelon."""
    rows: dict = {}
    for k, image in images.items():
        for r, x in image.items():
            rows.setdefault(r, {})[k] = x
    width = max(images, default=-1) + 1
    ech = Echelon(field, width, (rows[r] for r in sorted(rows)))
    pivots, kernel = set(ech.pivots), Echelon(field, width)
    for j in images:
        if j not in pivots:
            v = {j: field.one()}
            for row, p in zip(ech.rows, ech.pivots):
                if j in row:
                    v[p] = field.neg(row[j])
            kernel.add(v)
    return kernel


def socles_by_three_kernels(X) -> SocleData:
    """The former `socles`: a left, a right and a two-sided kernel of
    multiplication by the arrows over all of X, each by two eliminations,
    the first two split by the source or target of each pivot."""
    f, T, d = X.field, X.table, X.dim

    def kernel(sides):
        blocks = [(g, side) for g in X.arrows for side in sides]
        return row_reduce_by_two_eliminations(f, {
            k: {off * d + r: x for off, (a, side) in enumerate(blocks)
                for r, x in (T[a][k] if side == "L" else T[k][a]).items()}
            for k in range(d)})

    def split(ker, end):
        return [Echelon(f, d, [row for p, row in zip(ker.pivots, ker.rows)
                               if X.peirce[p][end] == i])
                for i in range(X.num_vertices)]

    return SocleData(left=split(kernel("L"), 0), right=split(kernel("R"), 1),
                     bimodule=kernel("LR"))


def socles_by_blocks(X) -> SocleData:
    """The former socles: 2r + 1 kernels, one per vertex and side on the
    basis elements with that source or target, and one two-sided."""
    r = range(X.num_vertices)
    return SocleData(
        left=[annihilator_on(X, [k for k, (s, _t) in enumerate(X.peirce) if s == i],
                             left=True, right=False) for i in r],
        right=[annihilator_on(X, [k for k, (_s, t) in enumerate(X.peirce) if t == j],
                              left=False, right=True) for j in r],
        bimodule=annihilator_on(X, range(X.dim)))


def peirce_by_sandwiches(X) -> bool:
    """The former pair of checks: e_a e_b = delta_ab e_a with the sum of
    the e_a a two-sided unit, and then e_j b e_i = [(i, j) == block] b,
    multiplied out for every basis element b and pair of vertices."""
    f, T, idem, one = X.field, X.table, X.idempotent_indices, X.field.one()
    if any(T[a][b] != ({a: one} if a == b else {}) for a in idem for b in idem):
        return False
    if not all(combine(f, ((one, T[e][k]) for e in idem)) == {k: one}
               == combine(f, ((one, T[k][e]) for e in idem)) for k in range(X.dim)):
        return False
    for k, block in enumerate(X.peirce):
        for i, ei in enumerate(idem):
            for j, ej in enumerate(idem):
                sandwich = combine(f, ((c, T[ej][l]) for l, c in T[k][ei].items()))
                if sandwich != ({k: one} if (i, j) == block else {}):
                    return False
    return True


def peirce_by_slots(X) -> bool:
    """The former `check_peirce`: for every basis element b_k and every
    vertex i, the slots b_k e_i and e_i b_k compared with [i == src] b_k
    and [i == tgt] b_k, the empty ones included."""
    T, idem, one = X.table, X.idempotent_indices, X.field.one()
    if any(X.peirce[e] != (a, a) for a, e in enumerate(idem)):
        return False
    for k, (src, tgt) in enumerate(X.peirce):
        bk = {k: one}
        if any(T[k][e] != (bk if i == src else {})
               or T[e][k] != (bk if i == tgt else {}) for i, e in enumerate(idem)):
            return False
    return True


def graded_products_by_slots(X) -> bool:
    """The former `check_graded_products`, one generator step per slot."""
    deg = X.degrees
    return deg is None or all(deg[k] == deg[i] + deg[j]
                              for i, row in enumerate(X.table)
                              for j, prod in enumerate(row) for k in prod)


def associativity_by_slots(X) -> bool:
    """The former `check_associativity`, whose block read and arrow
    triples stepped through every slot of the table."""
    f, T, peirce = X.field, X.table, X.peirce
    if any(peirce[j][0] != peirce[k][1] or peirce[l] != (peirce[k][0], peirce[j][1])
           for j, row in enumerate(T) for k, prod in enumerate(row) for l in prod):
        return False
    for g in X.arrows:
        Tg = T[g]
        for j, gj in enumerate(Tg):
            if peirce[j][1] != peirce[g][0]:
                continue
            for k, jk in enumerate(T[j]):
                if not (gj or jk) or peirce[k][1] != peirce[j][0]:
                    continue
                lhs = combine(f, ((c, T[l][k]) for l, c in gj.items()))
                rhs = combine(f, ((c, Tg[l]) for l, c in jk.items()))
                if lhs != rhs:
                    return False
    return True


def is_extension_table_by_slots(A, T) -> bool:
    """The former `_is_extension_table`: two `any()` generators for every
    slot (x, y) of the mixed blocks, the empty ones included, and no check
    of T's dimension, so it accepts a T with basis elements past 2 dim A."""
    d, At, Tt = A.dim, A.table, T.table
    mixed = 0
    for x in range(d):
        row, dual_row = Tt[x], Tt[d + x]
        if row[:d] != At[x] or any(dual_row[d:]):
            return False
        for y in range(d):
            left, right = row[d + y], dual_row[y]
            if (any(w < d or At[w - d][x].get(y) != c for w, c in left.items())
                    or any(u < d or At[y][u - d].get(x) != c for u, c in right.items())):
                return False
            mixed += len(left) + len(right)
    return mixed == 2 * sum(len(prod) for row in At for prod in row)


def extension_table_by_scan(A) -> list:
    """The former construction of T(A)'s structure table: each dual-block
    entry scans all d basis elements w for its coefficients."""
    d = A.dim
    table = [[{} for _ in range(2 * d)] for _ in range(2 * d)]
    for u in range(d):
        for v in range(d):
            table[u][v] = dict(A.table[u][v])
    for u in range(d):
        for v in range(d):
            # (b_u, 0) * (0, b_v*): the functional y |-> b_v*(y b_u)
            col = {}
            for w in range(d):
                c = A.table[w][u].get(v)
                if c:
                    col[d + w] = c
            table[u][d + v] = col
            # (0, b_v*) * (b_u, 0): the functional y |-> b_v*(b_u y)
            col = {}
            for w in range(d):
                c = A.table[u][w].get(v)
                if c:
                    col[d + w] = c
            table[d + v][u] = col
    return table


def lex_least_matching(candidates):
    """The lexicographically least system of distinct representatives of
    the candidate lists, by backtracking, or None."""
    r = len(candidates)
    used = [False] * r
    pick = [None] * r

    def search(i):
        if i == r:
            return True
        for j in candidates[i]:
            if not used[j]:
                used[j] = True
                pick[i] = j
                if search(i + 1):
                    return True
                used[j] = False
        return False

    return pick if search(0) else None


def selfinjectivity_by_matching(A):
    """The former `selfinjectivity`: the qualifying j of every vertex i,
    then a backtracking matching over them."""
    data = socles(A)
    left_dims = [sum(1 for s, _t in A.peirce if s == i) for i in range(A.num_vertices)]
    right_dims = [sum(1 for _s, t in A.peirce if t == j) for j in range(A.num_vertices)]
    socle_type = []
    for j in range(A.num_vertices):
        soc = data.right[j]
        if soc.rank != 1:
            socle_type.append(None)
            continue
        srcs = {A.peirce[k][0] for k in soc.rows[0]}
        socle_type.append(srcs.pop() if len(srcs) == 1 else None)

    candidates = []
    for i in range(A.num_vertices):
        cand = [j for j in range(A.num_vertices)
                if socle_type[j] == i and right_dims[j] == left_dims[i]]
        if not cand:
            reasons = [f"dim Ae_{A.vertex_names[i]} = {left_dims[i]} != "
                       f"dim e_{A.vertex_names[j]}A = {right_dims[j]}"
                       for j in range(A.num_vertices) if socle_type[j] == i]
            reason = (reasons[0] if reasons else
                      f"no indecomposable projective has simple right socle of "
                      f"type S_{A.vertex_names[i]}")
            return SelfinjectivityRefusal(vertex=i, reason=reason)
        candidates.append(cand)

    perm = lex_least_matching(candidates)
    if perm is None:
        return SelfinjectivityRefusal(
            vertex=0, reason="socle types do not admit a bijective assignment")
    return SelfinjectivityCertificate(permutation=tuple(perm))


def vertex_loewy_lengths(A) -> list[int]:
    """Loewy length of each projective left module Ae_i."""
    chain = radical_chain(A)
    out = []
    for i in range(A.num_vertices):
        # the least m where the rows of rad^m all vanish on the paths from i
        out.append(next(m for m, sub in enumerate(chain)
                        if not any(A.peirce[k][0] == i
                                   for row in sub.rows for k in row)))
    return out


@dataclass
class ArrowRep:
    """The former arrow record of an algebra, which kept an arrow's name,
    endpoints (as vertex indices) and degree beside the basis index of its
    representative; `is_new` marked the arrows lifted from the dual part
    of a trivial extension."""

    name: str
    source: int
    target: int
    basis_index: int
    degree: int | None = None
    is_new: bool = False


def arrow_records_of_presentation(pres, A) -> list:
    """The former records of `build_algebra(pres)`, which is A: one per
    arrow of the presentation, in its order, represented by the arrow's
    basis path; the degree is the arrow's when the quiver is graded, 1
    when the relations are homogeneous in path length, and None under a
    nilpotency bound."""
    q = pres.quiver
    by_length = all(len({p.length for _, p in rel.terms}) == 1 for rel in pres.relations)
    return [ArrowRep(a.name, q.vertex_index[a.source], q.vertex_index[a.target],
                     A.basis_labels.index(a.name),
                     a.degree if q.is_graded else (1 if by_length else None))
            for a in q.arrows]


def extension_arrow_records(A, records) -> list:
    """The former records of `trivial_extension(A)`, from the `records` of
    A: those of A with `is_new` reset, then one new arrow i -> j per pivot
    k of the bimodule socle in the block of paths j -> i, ordered by
    (i, j, k) and represented by the dual d + k of the pivot basis path,
    of degree s + 1 - deg k when A is graded with top degree s."""
    d, deg = A.dim, A.degrees
    new = [ArrowRep(A.basis_labels[k] + "*", A.peirce[k][1], A.peirce[k][0], d + k,
                    None if deg is None else max(deg) + 1 - deg[k], is_new=True)
           for k in sorted(socles(A).bimodule.pivots, key=lambda k: A.peirce[k][::-1] + (k,))]
    return [replace(r, is_new=False) for r in records] + new


def new_arrows_by_block_scan(A) -> list:
    """The former construction of the new arrows of T(A), as basis indices
    of T(A): for every pair of vertices (i, j), the pivots of the bimodule
    socle restricted to the Peirce block e_i A e_j, each giving an arrow
    i -> j represented by the dual of its pivot basis path."""
    soc, d = socles(A).bimodule, A.dim
    arrows = []
    for i in range(A.num_vertices):
        for j in range(A.num_vertices):
            block = [k for k, (src, tgt) in enumerate(A.peirce)
                     if (src, tgt) == (j, i)]  # e_i A e_j: paths j -> i
            if not block:
                continue
            arrows += [d + block[pivot] for pivot in soc.restrict(block).pivots]
    return arrows


def bfs_by_scan(adj, target):
    """The former `_bfs_exact`: shortest positive walk length from each
    node to `target`, assigning level k by rescanning every node for a
    successor at level k - 1."""
    dist = {}
    frontier = [v for v in adj if target in adj[v]]
    for v in frontier:
        dist.setdefault(v, 1)
    k = 1
    while frontier:
        k += 1
        nxt = []
        seen = set(dist)
        for v in adj:
            if v in seen:
                continue
            if any(w in dist and dist[w] == k - 1 for w in adj[v]):
                dist[v] = k
                nxt.append(v)
        frontier = nxt
    return dist


def phi(tri, path) -> dict:
    """The former path evaluator of `relations_up_to`: the value of a path
    of the extended quiver in T(A), multiplied out arrow by arrow."""
    T = tri.T
    if not path.arrows:
        return T.idempotent(tri.base.vertex_names.index(path.start))
    by_name = {T.basis_labels[g]: g for g in T.arrows}
    out = None
    for a in path.arrows:
        el = T.basis_element(by_name[a.name])
        out = el if out is None else T.multiply(el, out)
    return out


def slice_kernel_by_blocks(field, layer, values) -> list:
    """The former `_slice_kernel`: one kernel per Peirce block of the
    layer (start vertices, end vertices and words, as `path_layer` gives
    it), blocks in the order of their (start, end) vertex names, each
    block's reduced echelon rows in pivot order."""
    blocks: dict = {}
    for k, ends in enumerate(zip(layer[0], layer[1])):
        blocks.setdefault(ends, []).append(k)
    return [row for key in sorted(blocks)
            for row in row_reduce(field, {k: values[k] for k in blocks[key]}).rows]


def paths_up_to_length(quiver, max_length: int) -> list:
    """The former `quiver.enumerate_paths`: all paths of length <=
    max_length, ordered by length and then lexicographically by the index
    sequence of applied arrows.  The layers are those of `path_layer` on
    the quiver's arrows with their degrees left off, so that each weight
    is a length; the paths keep the degrees."""
    lengths = Quiver(quiver.vertices, [Arrow(a.name, a.source, a.target)
                                       for a in quiver.arrows])
    layers = [path_layer(lengths, [], 0)[0]]
    while len(layers) <= max_length and layers[-1][2]:
        layers.append(path_layer(lengths, layers, len(layers))[0])
    return [quiver.path(s, word) for starts, _ends, words in layers
            for s, word in zip(starts, words)]


def path_layer_of_paths(quiver, layers, w: int, by_length: bool = False):
    """The former `path_layer`: the layer a list of `Path`s grown from the
    lists `layers[v]`, and each left map found by a dict keyed by the
    tuples of `Arrow`s of the paths."""
    if w == 0:
        return [Path.stationary(v) for v in quiver.vertices], []
    paths, grown = [], []
    for a in quiver.arrows:
        v = w - (1 if by_length or a.degree is None else a.degree)
        if v < 0:
            continue
        right = {}
        for k, p in enumerate(layers[v]):
            if p.start == a.target:
                right[k] = len(paths)
                paths.append(Path(a.source, p.end, (a,) + p.arrows))
        if len(paths) > PATH_BUDGET:
            raise PathBudgetExceeded(
                f"more than {PATH_BUDGET} paths of weight {w}")
        grown.append((v, a, right))
    index = {p.arrows: k for k, p in enumerate(paths)}
    return paths, [(v, right, {k: index[p.arrows + (a,)]
                               for k, p in enumerate(layers[v]) if p.end == a.source})
                   for v, a, right in grown]


def quotient_slices_of_paths(quiver, field, window, max_weight, by_length=False):
    """The former `quotient_slices`, on the `Path` layers of
    `path_layer_of_paths`: yields (w, paths, steps, ideal)."""
    layers, ideals = {}, {}
    w = streak = 0
    while streak < window:
        if w > max_weight:
            raise AdmissibilityError(f"no window of {window} empty weight slices")
        paths, steps = path_layer_of_paths(quiver, layers, w, by_length)
        ideal = ideal_slice(field, len(paths),
                            [(ideals[v], right, left) for v, right, left in steps])
        yield w, paths, steps, ideal
        layers[w], ideals[w] = paths, ideal
        layers.pop(w - window, None)
        ideals.pop(w - window, None)
        streak = streak + 1 if ideal.rank == len(paths) else 0
        w += 1


def homogeneous_by_paths(pres, max_weight):
    """The former `_build_homogeneous`, on the `Path` walk: (order, rows),
    every walked path in weight order and the ideal's reduced echelon rows
    keyed by pivot."""
    q, f = pres.quiver, pres.field
    window = max((a.degree or 1) for a in q.arrows) if q.arrows else 1
    by_weight = {}
    for rel in pres.relations:
        by_weight.setdefault(next(iter(rel.weights())), []).append(rel)
    order, rows = [], {}
    for w, paths, _steps, ideal in quotient_slices_of_paths(q, f, window, max_weight):
        index = {p.label(): k for k, p in enumerate(paths)}
        for rel in by_weight.get(w, ()):
            ideal.add({index[t.label()]: c for c, t in rel.terms})
        start = len(order)
        order.extend(paths)
        for k, row in zip(ideal.pivots, ideal.rows):
            rows[start + k] = {start + j: c for j, c in row.items()}
    return order, rows


def slice_kernel_of_paths(field, layer, values) -> list:
    """The former `_slice_kernel`, on a layer of `Path`s: one elimination,
    its rows sorted by the endpoints of their pivot paths, then by pivot."""
    kernel = row_reduce(field, dict(enumerate(values)))
    return [row for _k, row in sorted(zip(kernel.pivots, kernel.rows), key=lambda kr: (
        layer[kr[0]].start, layer[kr[0]].end, kr[0]))]


def ideal_slice_adding_every_push(field, width, pieces) -> Echelon:
    """The former `ideal_slice`: every push of every row, right and left,
    added to a fresh Echelon.  Coordinates a map leaves out are dropped,
    so it also takes the truncating maps of `bounded_by_pieces`."""
    return Echelon(field, width, (vec for ideal, right, left in pieces
                                  for vec in _pushed(ideal.rows, (right, left))))


def bounded_by_pieces(pres):
    """The former `_build_bounded`: the ideal as the sum of the pieces J_l,
    J_0 spanned by the relations and J_l by the pushes of the rows of
    J_{l-1} through every arrow map, each piece echelonized on its own
    and then added, row by row, to the sum.  Returns (order, rows) or
    raises AdmissibilityError, as `_build_bounded` does."""
    q, f, N = pres.quiver, pres.field, pres.nilpotency_bound
    order, layers = [], []
    maps = [({}, {}) for _ in q.arrows]
    for w in range(N + 1):
        paths, steps = path_layer_of_paths(q, layers, w)
        for (v, right, left), (jr, jl) in zip(steps, maps):
            start = len(order) - len(layers[v])
            jr.update((start + k, len(order) + i) for k, i in right.items())
            jl.update((start + k, len(order) + i) for k, i in left.items())
        layers.append(paths)
        order.extend(paths)
    path_index = {p.label(): k for k, p in enumerate(order)}
    piece = Echelon(f, len(order), (
        {path_index[t.label()]: c for c, t in rel.terms if t.length <= N}
        for rel in pres.relations))
    ech = Echelon(f, len(order))
    while piece.rank:
        for row in piece.rows:
            ech.add(row)
        piece = ideal_slice_adding_every_push(f, len(order),
                                              [(piece, jr, jl) for jr, jl in maps])
    if any(order[k].length >= N for k in ech.free_columns()):
        raise AdmissibilityError(f"nilpotency bound {N} is too small")
    return order, dict(zip(ech.pivots, ech.rows))


def tuples(data, n: int):
    """The former `_BarData.tuples`: every degree-n tuple (b_0, s_1, ...,
    s_n) of `data`, grouped by the Peirce blocks of its entries and in
    lexicographic order within a group, the walks of slot blocks taken
    depth first off the reachability table."""
    def block_walks(u, goal, k):
        if not data.walks(k)[u][goal]:
            return
        if k == 0:
            yield []
            return
        m = len(data.blocks)
        steps = [None] + [[[(v, block) for v, block in enumerate(data.blocks[w])
                            if block and data.walks(r - 1)[v][goal]]
                           for w in range(m)] for r in range(1, k + 1)]
        walk, stack = [], [iter(steps[k][u])]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                if walk:
                    walk.pop()
            elif len(walk) == k - 1:
                yield walk + [step[1]]
            else:
                walk.append(step[1])
                stack.append(iter(steps[k - len(walk)][step[0]]))

    for (u, v), heads in data.heads.items():
        for walk in block_walks(v, u, n):
            yield from product(heads, *walk)


def tuples_by_nested_walks(data, n: int):
    """The `tuples` before the depth-first walks: each walk of slot
    blocks rebuilt through a chain of nested generators, one per degree."""
    def block_walks(u, goal, k):
        if k == 0:
            if u == goal:
                yield []
            return
        reach = data.walks(k - 1)
        for v, block in enumerate(data.blocks[u]):
            if block and reach[v][goal]:
                for rest in block_walks(v, goal, k - 1):
                    yield [block] + rest

    data.walks(n)
    for (u, v), heads in data.heads.items():
        for walk in block_walks(v, u, n):
            yield from product(heads, *walk)


def leads_by_faces(delta, cleared):
    """The `_Coboundary.leads` before the prefix scan: yield (r, j, c) for
    the row key r of every degree-(n-1) tuple u of `tuples` not in
    `cleared`, reading the least key of each of its n + 1 faces in turn: j
    the least of them, c the sum of the coefficients of the faces that
    reach it, (r, None, 0) if every face is empty."""
    P, n, place = delta.P, delta.n, delta.place
    none = (None, 0)
    first = [min(cof, default=none) for cof in delta.first]
    wrap = [min(cof, default=none) for cof in delta.wrap]
    mid = [None] + [[min(cof, default=none) for cof in m] for m in delta.mid[1:]]
    p0 = place[0]
    for u in tuples(delta.data, n - 1):
        key = sum(x * y for x, y in zip(u, place))
        if -key in cleared:
            continue
        rest = key - u[0] * p0
        j, c = first[u[0]]
        if j is not None:
            j -= rest
        k, x = wrap[u[0]]
        if k is not None:
            k -= P * rest
            if j is None or k < j:
                j, c = k, x
            elif k == j:
                c += x
        head = 0
        for i in range(1, n):
            head += u[i - 1] * place[i - 1]
            k, x = mid[i][u[i]]
            if k is not None:
                k -= (P - 1) * head + key - u[i] * place[i]
                if j is None or k < j:
                    j, c = k, x
                elif k == j:
                    c += x
        yield -key, j, c


def leads_by_prefix_scan(delta, cleared):
    """The former `_Coboundary.leads`: yield (r, j, c) for the row key r of
    every degree-(n-1) tuple u not in `cleared`, in the order of
    `_BarData.block_trie`, without building its column: j is the smallest
    row key of delta_n(u) and c the sum over the faces of their
    coefficients at j; (r, None, 0) if the column is empty.  Each prefix of
    the trie keeps one state (h, g, c): h = -(its key), g the least value
    of its faces and c their coefficients summed over ties at g; each
    tuple adds its key, the `cleared` test and the wrap face.  The trie's
    concatenated last nodes are walked one block at a time."""
    P, n, place = delta.P, delta.n, delta.place
    q, p0 = P - 1, place[0]
    big = delta.data.d * (P + 1) ** n + 1

    def firsts(faces, i):
        return [(cof[0][0] + x * place[i], cof[0][1], x * place[i]) if cof
                else (big, 0, x * place[i]) for x, cof in enumerate(faces)]

    lead = [firsts(faces, i) for i, faces in enumerate([delta.first, *delta.mid[1:]])]
    wrap = [(cof[0][0] + P * b * p0, cof[0][1]) if cof else (big, 0)
            for b, cof in enumerate(delta.wrap)]
    states = [[(0, big, 0)]]
    for node_depth, blocks in delta.data.block_trie(n - 1):
        for depth, members in enumerate(blocks, node_depth):
            faces = lead[depth]
            if depth < n - 1:
                out = []
                for h, g, c in states[depth]:
                    qh = q * h
                    for e in members:
                        G, x, shift = faces[e]
                        G += qh
                        out.append((h - shift, G, x) if G < g else
                                   (h - shift, g, c + x) if G == g else (h - shift, g, c))
                states[depth + 1:] = [out]
                continue
            for h, g, c in states[depth]:
                qh = q * h
                for e in members:
                    G, x, shift = faces[e]
                    r = h - shift
                    if r in cleared:
                        continue
                    G += qh
                    if G < g:
                        j = G
                    elif G == g:
                        j, x = g, c + x
                    else:
                        j, x = g, c
                    j += r
                    W, y = wrap[-r // p0]
                    W += P * r
                    if W < j:
                        j, x = W, y
                    elif W == j:
                        x += y
                    # row keys are <= 0: j > 0 only if every face is empty
                    yield r, (j if j <= 0 else None), x


def coboundary_rank_by_leads(data, n: int, cleared, leads=leads_by_prefix_scan) -> SparseRank:
    """The former `_coboundary_rank`: delta_n fed to `SparseRank` from a
    stream of leads (r, j, c) of the tuples outside `cleared`.  A column
    whose lead is a new pivot is deferred, its row key r stored as the
    pivot at j; the others are built and added.  The engine is returned."""
    delta = _Coboundary(data, n)
    p = data.B.field.characteristic
    eng = SparseRank(p, delta.column)
    for r, j, c in leads(delta, cleared):
        if (c % p if p else c) and j not in eng.pivots:
            eng.pivots[j] = r
            eng.rank += 1
        elif j is not None:
            eng.add(delta.column(r))
    return eng


def commutator_rank_by_fractions(B) -> int:
    """The former `commutator_rank`: the commutator columns b_i b_j - b_j b_i
    in field arithmetic, ranked on an Echelon (`SparseRank` now takes
    integer columns only)."""
    f, T = B.field, B.table
    ech = Echelon(f, B.dim)
    for i in range(B.dim):
        for j in range(B.dim):
            col = dict(T[i][j])
            for k, v in T[j][i].items():
                w = f.add(col.get(k, f.zero()), f.neg(v))
                if w:
                    col[k] = w
                else:
                    col.pop(k, None)
            ech.add(col)
    return ech.rank


def relations_adding_every_kernel_vector(tri, cap=None):
    """The former `relations_up_to`, on the `Path` walk: every vector of
    each slice kernel is added to the ideal slice, also once the slice has
    the kernel's rank."""
    ll = loewy_length(tri.T)
    if cap is None:
        cap = ll
    T = tri.T
    f, table = T.field, T.table
    values: list = []
    gens: list = []
    quotient_dim = 0
    try:
        for length, layer, steps, ideal in quotient_slices_of_paths(
                extended_quiver(tri), f, 1, max(cap, 3 * ll + 3), by_length=True):
            if length == 0:
                values = [T.idempotent(v) for v in range(len(layer))]
            elif length <= cap:
                below, values = values, [None] * len(layer)
                for g, (_, right, _) in zip(T.arrows, steps):
                    for k, i in right.items():
                        values[i] = combine(f, ((c, table[l][g])
                                                for l, c in below[k].items()))
            if 2 <= length <= cap:
                for vec in slice_kernel_of_paths(f, layer, values):
                    if ideal.add(vec):
                        gens.append(RelationExpr(tuple((vec[k], layer[k])
                                                       for k in sorted(vec))))
            quotient_dim += len(layer) - ideal.rank
    except (AdmissibilityError, PathBudgetExceeded):
        return RelationSet(generators=gens, cap=cap, quotient_dim=None, complete=False)
    return RelationSet(generators=gens, cap=cap, quotient_dim=quotient_dim,
                       complete=(quotient_dim == T.dim))


def exact_div(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    """The former `IntPolynomial.exact_div`: the quotient num/den when the
    division is exact in Z[x]; ArithmeticError otherwise."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return IntPolynomial()
    rem = list(num.coeffs)
    div = den.coeffs
    dq = len(rem) - len(div)
    if dq < 0:
        raise ArithmeticError("inexact polynomial division")
    out = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        lead = rem[k + len(div) - 1]
        q, r = divmod(lead, div[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[k] = q
        if q:
            for i, c in enumerate(div):
                rem[k + i] -= q * c
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return IntPolynomial(out)


def poly_det_by_polynomial_bareiss(rows) -> IntPolynomial:
    """The former `poly_det`: fraction-free Bareiss elimination with
    IntPolynomial entries, every division exact over Z[x]."""
    n = len(rows)
    if n == 0:
        return POLY_ONE
    a = [list(row) for row in rows]
    sign = 1
    prev = POLY_ONE
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if swap is None:
                return POLY_ZERO
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = exact_div(a[k][k] * a[i][j] - a[i][k] * a[k][j], prev)
            a[i][k] = POLY_ZERO
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det
