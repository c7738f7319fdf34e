"""The trivial extension T(A) = A ⋉ DA and its extended quiver.

T(A) lives on A ⊕ DA with multiplication (a,f)(b,g) = (ab, ag + fb), where
the bimodule actions on the dual are (a·f)(y) = f(ya) and (f·b)(y) = f(by).
On the distinguished basis this makes the dual basis element of b = e_j b e_i
sit in the Peirce block e_i T e_j, so the dual part contributes arrows in the
opposite direction.

The quiver of T(A) has the same vertices as A; its arrows are the arrows of
A together with one new arrow i -> j for every basis vector of
e_j(D soc)e_i, where soc is the socle of A as a bimodule.  The chosen
representative of a new arrow is the dual functional of a pivot of the
reduced echelon basis of e_i(soc)e_j, extended by zero off that basis path;
this makes both the arrow set and the representatives deterministic.  Like
every algebra's, the arrows of T(A) are basis indices: those of A, then the
duals of these pivots, so a new arrow's name, endpoints and degree are the
label, Peirce block and degree of its dual basis vector.  The extended
quiver itself is an invariant of T(A); the relation ideal extracted by
`relations_up_to` may depend on these choices.  That extraction walks the
extended path algebra by length slices with `algebra.quotient_slices`, the
walk that also builds kQ/I, on arrow-index words over T(A)'s arrows with
their degrees left off, so that an arrow weighs 1, and takes the kernel of
the evaluation on each slice with one `row_reduce` over the whole layer,
read block by block; a `Path` of T(A)'s arrows, degrees kept, is made only
for each term of a generator.

T(A) is validated by construction: `validate_extension` checks that T(A)
has dimension 2 dim A, reads each nonzero entry of its table once against
A's, which proves it associative given that A is, and keeps the Peirce,
generation and grading checks of `FDAlgebra.validate`; the generic
associativity proof is not run again.  The T it returns is then marked as
A ⋉ DA, so that `algebra.socles(T)` places the spans of the duals e_v* of
the idempotents instead of eliminating; copies of T drop the mark.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (AdmissibilityError, FDAlgebra, arrows_of, loewy_length,
                      nonzero_columns, quotient_slices, socles)
from .dsl import RelationExpr
from .linalg import combine, row_reduce
from .quiver import Arrow, Path, PathBudgetExceeded, Quiver
# unused here; kept as a module binding because the bench tests check that
# the tracer patches every module's `compose`
from .quiver import compose  # noqa: F401


class TrivialExtensionData:
    """T(A) over its base algebra A; the new arrows are the arrows of T(A)
    past those of A, as basis indices of T(A)."""

    def __init__(self, base: FDAlgebra, T: FDAlgebra):
        self.base = base
        self.T = T

    @property
    def new_arrows(self) -> list[int]:
        return self.T.arrows[len(self.base.arrows):]

    def dual_index(self, k: int) -> int:
        """Index pairing the A-part and DA-part copies of basis slot k."""
        d = self.base.dim
        return k + d if k < d else k - d

    def symmetric_form(self, u: dict, v: dict):
        """The associative symmetric form <(a,f),(b,g)> = f(b) + g(a)."""
        f = self.T.field
        total = f.zero()
        for k, x in u.items():
            y = v.get(self.dual_index(k))
            if y is not None:
                total = f.add(total, f.mul(x, y))
        return total


def trivial_extension(A: FDAlgebra) -> TrivialExtensionData:
    """Build T(A) = A ⋉ DA with exact structure constants.

    The basis is the basis of A followed by its dual basis; products of two
    dual-part elements vanish.  The mixed products are read off the nonzero
    entries of A's table in one pass: a coefficient c of b_v in b_w b_u is
    the value at b_w of b_u·b_v* and the value at b_u of b_v*·b_w.  When A
    is graded with top degree s, T(A) is graded by keeping the degrees on A
    and giving the dual of a degree-l basis element degree s+1-l (including
    l = 0), so T(A) has top degree s+1.  The result is labelled T(<label
    of A>) when A has a label, and has passed `validate_extension`.

    A must be associative, as every algebra that `build_algebra` or
    `trivial_extension` returns is.
    """
    f = A.field
    d = A.dim

    table = [[dict(x) for x in row] + [{} for _ in range(d)] for row in A.table]
    table += [[{} for _ in range(2 * d)] for _ in range(d)]
    for w, row in enumerate(A.table):
        for u, prod in enumerate(row):
            for v, c in prod.items():
                table[u][d + v][d + w] = c
                table[d + v][w][d + u] = c

    labels = list(A.basis_labels) + [lab + "*" for lab in A.basis_labels]
    peirce = list(A.peirce) + [(tgt, src) for (src, tgt) in A.peirce]
    degrees = None
    if A.degrees is not None:
        s = max(A.degrees)
        degrees = list(A.degrees) + [s + 1 - l for l in A.degrees]

    # the arrows of A, then one new arrow i -> j per pivot k of the reduced
    # echelon basis of e_i(soc)e_j (k a path j -> i), ordered by (i, j, k);
    # its representative is the dual d + k of the pivot basis path, in
    # block (i, j).  soc is a sub-bimodule, so it is the direct sum of its
    # Peirce blocks, and the reduced echelon basis of a direct sum on
    # disjoint coordinates is the union of the blocks' bases: the pivots of
    # soc in a block are exactly the pivots of that block.
    arrows = list(A.arrows) + [d + k for k in sorted(
        socles(A).bimodule.pivots, key=lambda k: A.peirce[k][::-1] + (k,))]

    T = FDAlgebra(field=f, labels=labels, vertex_names=A.vertex_names,
                  idempotent_indices=list(A.idempotent_indices), peirce=peirce,
                  table=table, arrows=arrows, degrees=degrees,
                  bound_conditional=A.bound_conditional,
                  label=f"T({A.label})" if A.label else "")
    validate_extension(A, T)
    # read by `socles`; like every stored result, copies do not carry it
    T._derived["extension_of"] = A
    return TrivialExtensionData(base=A, T=T)


def validate_extension(A: FDAlgebra, T: FDAlgebra):
    """Raise AlgebraBuildError naming the first check that T fails as
    T(A) of the associative algebra A: `FDAlgebra.validate` with
    `_is_extension_table` in place of the associativity proof, failing
    with "the table of T(A) is not A ⋉ DA", which also covers a T whose
    dimension is not 2 dim A.  Every check reads only the nonzero entries
    of T's table.

    That table check suffices.  As A is associative, DA is an A-bimodule
    under (a·f)(y) = f(ya) and (f·b)(y) = f(by): both (a·(f·b))(y) and
    ((a·f)·b)(y) are f(bya), (a·(a'·f))(y) = f(yaa') = ((aa')·f)(y), and
    likewise on the right.  The bimodule axioms make A ⋉ DA associative:
    ((a,f)(b,g))(c,h) and (a,f)((b,g)(c,h)) are both
    (abc, ab·h + a·g·c + f·bc).  The grading needs no proof either: b_w*
    has a coefficient in b_u b_v* only if b_v has one in b_w b_u, so
    deg b_v = deg b_w + deg b_u, and deg b_w* = s+1-deg b_w is
    deg b_u + deg b_v*; likewise for b_v* b_w.  The Peirce, generation and
    grading checks still run: they read the idempotents, the new arrows
    and the degrees, which the table check does not.  Generation is proved
    from table reads where they close, so T's arrow layers are walked only
    when its radical chain is read or those reads do not close.
    """
    T._validate(lambda: _is_extension_table(A, T), "the table of T(A) is not A ⋉ DA")


def _is_extension_table(A: FDAlgebra, T: FDAlgebra) -> bool:
    """T's table is exactly that of A ⋉ DA, on the basis of A followed by
    its dual basis, read one nonzero entry of T at a time.

    T has dimension 2 dim A and a square table of that size.  The A x A
    block is A's table and DA · DA = 0.  Every coordinate of b_u b_v* must
    be some b_w* whose coefficient is that of b_v in b_w b_u, and every
    coordinate of b_v* b_w some b_u* with that same coefficient: each
    lookup goes from a nonzero entry of T back to an entry of A, and the
    empty slots of the mixed blocks are skipped unread.  Within one mixed
    block distinct entries of T look up distinct nonzeros of A, so each
    block has at most nnz(A) nonzeros; with 2 nnz(A) in all, each block
    has one for every nonzero of A, and no entry is missing.
    """
    d, At, Tt = A.dim, A.table, T.table
    if not (T.dim == len(Tt) == 2 * d and all(len(row) == 2 * d for row in Tt)):
        return False
    mixed = 0
    for x in range(d):
        row, dual_row = Tt[x], Tt[d + x]
        if row[:d] != At[x] or any(dual_row[d:]):
            return False
        # b_x b_y* = sum_w c b_w* with c = A's coefficient of b_y in b_w b_x
        for y in nonzero_columns(row[d:]):
            left = row[d + y]
            for w, c in left.items():
                if not d <= w < 2 * d or At[w - d][x].get(y) != c:
                    return False
            mixed += len(left)
        # b_x* b_y = sum_u c b_u* with c = A's coefficient of b_x in b_y b_u
        for y in nonzero_columns(dual_row[:d]):
            right = dual_row[y]
            for u, c in right.items():
                if not d <= u < 2 * d or At[y][u - d].get(x) != c:
                    return False
            mixed += len(right)
    return mixed == 2 * sum(sum(map(len, row)) for row in At)


def extended_quiver(tri: TrivialExtensionData) -> Quiver:
    """The quiver of T(A): the arrows of A plus the new arrows."""
    return Quiver(tri.T.vertex_names, arrows_of(tri.T, tri.T.arrows))


def check_new_products_vanish(tri: TrivialExtensionData) -> bool:
    """Products of any two composable new arrows vanish in T(A) (the dual
    part has square zero)."""
    new, peirce, table = tri.new_arrows, tri.T.peirce, tri.T.table
    return not any(peirce[b1][1] == peirce[b2][0] and table[b2][b1]
                   for b2 in new for b1 in new)


@dataclass
class RelationSet:
    generators: list            # RelationExpr over the extended quiver
    cap: int
    quotient_dim: int | None    # dim of kQ~ modulo the generated ideal
    complete: bool              # quotient_dim == dim T(A)


def relations_up_to(tri: TrivialExtensionData, cap: int | None = None) -> RelationSet:
    """Length-homogeneous generators of the kernel of the evaluation map
    from the extended path algebra onto T(A), found per length <= cap.

    The ideal generated so far is walked one length slice at a time by
    `quotient_slices`, the walk that also builds kQ/I, on a quiver of
    T(A)'s arrows with their degrees left off: the slice I_l is
    spanned by a * I_{l-1} and I_{l-1} * a over the arrows a, and the path
    layers have at most PATH_BUDGET paths.  For each length l <= cap and
    each Peirce block, a basis of the kernel of the evaluation on length-l
    paths is then reduced modulo I_l, until I_l has the kernel's rank; the
    vectors that enlarge it become generators and join I_l.  The value in
    T(A) of each path p*a ("a first") of a layer is the value v of p, kept
    from the layer below, times a, read off the table as sum_l v_l T[l][a]:
    one product per path.
    The returned record also reports the dimension of the quotient by the
    generated ideal: if it equals dim T(A) the generator set presents the
    algebra.  The walk ends at the first slice lying wholly in the ideal;
    when none comes by length max(cap, 3 * loewy_length + 3), or a path
    layer outgrows PATH_BUDGET, the dimension is reported as None.
    (Kernel elements mixing several path lengths, which occur
    when the relations of A are not homogeneous in path length, are not
    captured by this length-sliced search; the completeness flag then
    reports the deficit.)
    """
    ll = loewy_length(tri.T)
    if cap is None:
        cap = ll
    if cap < 2:
        raise ValueError("relation cap must be >= 2")
    T = tri.T
    f, table = T.field, T.table
    arrows = arrows_of(T, T.arrows)
    lengths = Quiver(T.vertex_names, [Arrow(a.name, a.source, a.target) for a in arrows])
    values: list = []
    gens: list[RelationExpr] = []
    quotient_dim = 0
    try:
        for length, layer, steps, ideal in quotient_slices(
                lengths, f, max(cap, 3 * ll + 3)):
            starts, ends, words = layer
            if length == 0:
                values = [T.idempotent(v) for v in range(len(words))]
            elif length <= cap:
                # one step per arrow, in T.arrows order (all arrows have
                # length 1): step a maps the index of p below to that of p*a
                below, values = values, [None] * len(words)
                for g, (_, right, _) in zip(T.arrows, steps):
                    for k, i in right.items():
                        values[i] = combine(f, ((c, table[l][g])
                                                for l, c in below[k].items()))
            if 2 <= length <= cap:
                kernel = _slice_kernel(f, layer, values)
                for vec in kernel:
                    # I_l lies in the kernel, so at equal rank they are equal
                    if ideal.rank < len(kernel) and ideal.add(vec):
                        gens.append(RelationExpr(tuple(
                            (vec[k], Path(starts[k], ends[k],
                                          tuple(arrows[i] for i in words[k])))
                            for k in sorted(vec))))
            quotient_dim += len(words) - ideal.rank
    except (AdmissibilityError, PathBudgetExceeded):
        # the probe limit passed without a dead slice, or runaway path
        # growth (cap far below the Loewy length): the dimension is left
        # undetermined rather than thrash
        return RelationSet(generators=gens, cap=cap, quotient_dim=None, complete=False)
    # a dead slice: every longer path lies in the generated ideal, so the
    # quotient dimension is exact
    return RelationSet(generators=gens, cap=cap, quotient_dim=quotient_dim,
                       complete=(quotient_dim == T.dim))


def _slice_kernel(field, layer, values):
    """Reduced echelon basis of the kernel of the evaluation map on one
    length slice, where `values[k]` is the element of T(A) that path k of
    `layer` (see `path_layer`) evaluates to, in block order: by the start
    and end vertex names of each row's pivot path, then by pivot.

    Paths with different endpoints (s, t) evaluate into the Peirce block
    e_t T e_s, on coordinates disjoint from every other block's, so the
    map is block diagonal and its kernel is the direct sum of the block
    kernels.  The reduced echelon basis of a direct sum on disjoint
    coordinates is the union of the blocks' bases, as for the socle pivots
    in `trivial_extension`: every kernel vector is a combination of
    parallel paths.  One elimination over the whole layer gives them all.
    """
    starts, ends, _words = layer
    kernel = row_reduce(field, dict(enumerate(values)))
    return [row for _k, row in sorted(zip(kernel.pivots, kernel.rows), key=lambda kr: (
        starts[kr[0]], ends[kr[0]], kr[0]))]
