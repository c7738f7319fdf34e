"""Routines the package no longer needs, kept for tests as references."""

from trivext.hochschild import DEFAULT_TUPLE_CAP, boundary_matrix


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


def boundary_squares_to_zero(B, n_max: int, variant: str = "normalized",
                             cap: int = DEFAULT_TUPLE_CAP) -> bool:
    """Check b_n . b_{n+1} = 0 as exact matrices for 1 <= n <= n_max."""
    for n in range(1, n_max + 1):
        bn = boundary_matrix(B, n, variant, cap)
        bn1 = boundary_matrix(B, n + 1, variant, cap)
        if any(apply_column(bn, col) for col in bn1.cols):
            return False
    return True
