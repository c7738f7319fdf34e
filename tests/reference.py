"""Routines the package no longer needs, kept for tests as references."""

from trivext.hochschild import DEFAULT_TUPLE_CAP, DimensionCapExceeded, _BarData
from trivext.linalg import QQ, SparseRank


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
        eng = SparseRank(self.field.p)
        for col in self.cols:
            eng.add(col)
        return eng.rank


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
    row_of = {-data.key(t): r for r, t in enumerate(data.tuples(n - 1))}
    scale = data.integer_tables[0]
    m = ExactMatrix(data.chain_dim(n - 1), data.chain_dim(n), f)
    for idx, col in enumerate(data.columns(n)):
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
