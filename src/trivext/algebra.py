"""Finite dimensional quiver algebras as exact structure constants.

An algebra kQ/I is realized on a basis of path normal forms.  An ideal
grows by multiplying vectors by an arrow on either side through the
index maps of `path_layer`, whose layers are lists of arrow-index words;
the walks build no `Path`, and `build_algebra` makes one only for each
basis path.  When the relations are homogeneous for the weight the
quiver gives its arrows (their degrees, or 1 each when untagged), one
walk, `quotient_slices`, grows the path layers and pushes the rows of
earlier slices into each new one with `ideal_slice` (`_pushed_whole`),
which places the pushes p -> p*a as rows that are already reduced and
eliminates only the pushes p -> a*p; the walk stops once a window of
consecutive slices as wide as the largest arrow weight dies, which
certifies that every longer path lies in the ideal.  The same walk, on
T(A)'s arrows with their degrees left off, extracts the relations of
T(A) by length in `relations_up_to`.  Otherwise an explicit nilpotency
bound is required: the ideal is closed on one `Echelon` over all paths
up to the bound, pushing (`_pushed`) each round only the vectors that
enlarged it, with the terms past the bound truncated.
Either builder hands `build_algebra` the coordinate paths and the ideal's
reduced echelon rows keyed by pivot, from which the basis, the degrees
and every structure constant are read.  A path layer of more than
PATH_BUDGET paths raises PathBudgetExceeded.

Radicals, socles, Loewy lengths and the structural predicates (local,
selfinjective, weak socle condition) are all plain exact linear algebra
over the ground field; every subspace of an algebra, such as a radical
power or a socle, is an `Echelon` on its basis coordinates.
`FDAlgebra.validate` proves that the idempotents and arrows generate A
from table reads, reaching each basis element as the one new term of an
arrow times a reached one, and then proves associativity from arrow
triples; T(A) instead has its table read against A's
(`trivial_extension.validate_extension`), as A ⋉ DA is associative once
A is.  One walk, `arrow_layers`, multiplies the idempotents by the arrows
layer by layer, computing g v only when the support of v meets the
nonzero columns of the arrow's row, and one elimination over its layers,
deepest first (`layer_sums`), gives both their span and the radical
powers.  It is derived when the radical chain is first read, or when the
reads of the generation check do not close, which it then decides; an
algebra that is only validated walks no layers.  The table reads of the
Peirce, generation, grading and block checks, of that table check and of
the walk visit the nonzero entries only: `nonzero_columns` skips the
empty slots of a row.  The socles are
two kernels, each the `Echelon` that `row_reduce` returns, and the
bimodule socle is their intersection, read as a kernel on the left
kernel's rows and placed without elimination; those of a trivial
extension T = A ⋉ DA, which `trivial_extension` marks, are the spans of
the duals of the idempotents, placed off the construction
(`_extension_socles`) when rad A is the span of A's non-idempotent basis
vectors.  The layer
sums, the radical chain, the socles and selfinjectivity are derived once
per algebra, on first use, and stored on the instance; every other
structural reader (Loewy lengths, radical powers, the weak socle
condition, T(A), the CLI summaries) reads those stored results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from itertools import compress
from operator import itemgetter

from .dsl import Presentation
from .linalg import Echelon, GroundField, combine, row_reduce
from .quiver import Arrow, Path, Quiver, compose, path_layer, word_labels


class AlgebraBuildError(ValueError):
    pass


class AdmissibilityError(AlgebraBuildError):
    """The presentation could not be certified to give a finite
    dimensional algebra of the promised shape."""


class FDAlgebra:
    """A finite dimensional algebra on a distinguished basis.

    `table[i][j]` holds the coordinates of basis_i * basis_j as a sparse
    dict; products follow function order, so basis_i * basis_j means
    "basis_j first".  The stationary idempotents are basis elements, every
    basis element lies in a single Peirce block (src, tgt), and `arrows`
    lists the basis indices of the arrows' representatives.  An arrow's
    name, endpoints and degree are its basis label, Peirce block and
    degree (see `arrows_of`).

    An instance is immutable after construction: `layer_sums`,
    `radical_chain`, `socles` and `selfinjectivity` are derived once and
    stored on it, so neither the table nor a returned `Echelon` may be
    changed.  `trivial_extension` stores its mark, `extension_of`, with
    them.  Copies (`copy.copy`, `copy.deepcopy`) and pickles carry neither
    the stored results nor the mark, so a copy whose table is then edited
    derives its own.
    """

    def __init__(self, field: GroundField, labels, vertex_names, idempotent_indices,
                 peirce, table, arrows, degrees=None, bound_conditional=False,
                 label=""):
        self.field = field
        self.dim = len(labels)
        self.basis_labels = list(labels)
        self.vertex_names = list(vertex_names)
        self.idempotent_indices = list(idempotent_indices)
        self.peirce = list(peirce)
        self.table = table
        self.arrows = list(arrows)
        self.degrees = list(degrees) if degrees is not None else None
        self.bound_conditional = bound_conditional
        self.label = label
        self._derived: dict = {}

    def __getstate__(self):
        return {**self.__dict__, "_derived": {}}

    # -- elements -----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.idempotent_indices)

    @property
    def is_graded(self) -> bool:
        return self.degrees is not None

    @property
    def top_degree(self) -> int:
        if self.degrees is None:
            raise AlgebraBuildError("algebra carries no grading")
        return max(self.degrees)

    def basis_element(self, k: int) -> dict:
        return {k: self.field.one()}

    def idempotent(self, i: int) -> dict:
        return {self.idempotent_indices[i]: self.field.one()}

    def multiply(self, x: dict, y: dict) -> dict:
        """Bilinear extension of the structure constants (x*y, y first)."""
        mul = self.field.mul
        return combine(self.field, ((mul(xi, yj), self.table[i][j])
                                    for i, xi in x.items() for j, yj in y.items()))

    def radical_basis_indices(self) -> list[int]:
        idem = set(self.idempotent_indices)
        return [k for k in range(self.dim) if k not in idem]

    # -- structural checks ---------------------------------------------

    def check_peirce(self) -> bool:
        """The unit, idempotent and Peirce axioms, read off the table: e_a
        lies in block (a, a), and a basis element b of block (src, tgt) has
        b e_i = [i == src] b and e_i b = [i == tgt] b for every vertex i.

        These entries give e_j b e_i = [(i, j) == (src, tgt)] b, and on
        b = e_a they give e_a e_b = delta_ab e_a and sum_a e_a b = b =
        sum_a b e_a.  Conversely the unit gives b e_i = sum_j e_j b e_i =
        [i == src] b, likewise e_i b, and e_a = e_a e_a e_a puts e_a in
        block (a, a).  So they hold iff the axioms do.

        They are read off the nonzero entries of the column and the row of
        each e_i: b_k e_i is nonzero exactly for the b_k of source i, and
        e_i b_k exactly for those of target i, each then b_k itself.
        """
        T, idem, one = self.table, self.idempotent_indices, self.field.one()
        if any(self.peirce[e] != (a, a) for a, e in enumerate(idem)):
            return False
        n = len(idem)
        sources, targets = [[] for _ in idem], [[] for _ in idem]
        for k, (src, tgt) in enumerate(self.peirce):
            if 0 <= src < n:
                sources[src].append(k)
            if 0 <= tgt < n:
                targets[tgt].append(k)
        for e, of_source, of_target in zip(idem, sources, targets):
            column, row = list(map(itemgetter(e), T)), T[e]
            if (list(nonzero_columns(column)) != of_source
                    or list(nonzero_columns(row)) != of_target):
                return False
            for k in of_source:
                if column[k] != {k: one}:
                    return False
            for k in of_target:
                if row[k] != {k: one}:
                    return False
        return True

    def check_generation(self) -> bool:
        """The idempotents and the arrows generate the algebra: the sum V of
        the arrow layers, the first of the `layer_sums`, is all of it.

        First a proof from table reads alone (`_generation_by_reads`).  The
        reached set R starts as the idempotents.  For each reached b_j and
        each arrow g, T[g][j] is read off the nonzero columns of the arrow
        rows; when its support has exactly one element b_k outside R, b_k
        joins R.  This is sound: V is closed under v -> g v, so
        c b_k = g b_j - (terms in R) lies in V, with c != 0, and by
        induction R lies in V.  When R ends as the whole basis, V = A.
        Otherwise the walk decides: V is S_0 of `layer_sums`, which is
        derived only then.  So the verdict is always that of the walk, and
        an algebra whose radical chain nobody reads is validated with no
        elimination.
        """
        return _generation_by_reads(self) or layer_sums(self)[0].rank == self.dim

    def check_associativity(self) -> bool:
        """(x y) z == x (y z) for all x, y, z, proved from arrow triples.

        Precondition: `check_peirce` and `check_generation` pass, as in
        `validate`.  First a block read, which the Peirce axioms and
        associativity force: b_j b_k = 0 unless src b_j == tgt b_k, and its
        terms lie in block (src b_k, tgt b_j).  Let S be the subspace of x
        with (x y) z = x (y z) for all y, z.  The block read puts every
        idempotent in S.  For an arrow g it makes both sides of (g b_j) b_k
        = g (b_j b_k) vanish unless tgt b_j == src g and tgt b_k == src b_j,
        so checking the remaining triples puts g in S.  S is closed under
        x -> g x, as ((g x) y) z = g ((x y) z) = g (x (y z)) = (g x)(y z),
        so generation gives S = A.

        The triples are read off the nonzero entries: for an arrow g, the
        b_j run over the basis elements of target src g; when g b_j != 0
        the b_k run over every basis element of target src b_j, and
        otherwise over the nonzero columns of b_j's row, which the block
        read has put there.  Every other pair has both sides 0.
        """
        f, T, peirce = self.field, self.table, self.peirce
        if any(peirce[j][0] != peirce[k][1] or peirce[l] != (peirce[k][0], peirce[j][1])
               for j, row in enumerate(T) for k in nonzero_columns(row) for l in row[k]):
            return False
        into: dict = {}  # vertex -> the basis elements of that target
        for k, (_src, tgt) in enumerate(peirce):
            into.setdefault(tgt, []).append(k)
        for g in self.arrows:
            Tg = T[g]
            for j in into.get(peirce[g][0], ()):
                gj, Tj = Tg[j], T[j]
                for k in into.get(peirce[j][0], ()) if gj else nonzero_columns(Tj):
                    jk = Tj[k]
                    lhs = combine(f, ((c, T[l][k]) for l, c in gj.items()))
                    rhs = combine(f, ((c, Tg[l]) for l, c in jk.items()))
                    if lhs != rhs:
                        return False
        return True

    def check_graded_products(self) -> bool:
        """b_i b_j lies in degree deg b_i + deg b_j, when there is a grading."""
        deg = self.degrees
        return deg is None or all(deg[k] == deg[i] + deg[j]
                                  for i, row in enumerate(self.table)
                                  for j in nonzero_columns(row) for k in row[j])

    def validate(self):
        """Raise AlgebraBuildError naming the first structural check that fails."""
        self._validate(self.check_associativity, "multiplication is not associative")

    def _validate(self, check_products, products_failure):
        """`validate` with `check_products`, failing with `products_failure`,
        in place of the associativity proof."""
        for check, failure in (
                (self.check_peirce, "idempotent or Peirce axioms fail"),
                (self.check_generation,
                 "the idempotents and arrows do not generate the algebra"),
                (check_products, products_failure),
                (self.check_graded_products, "products do not respect the grading")):
            if not check():
                raise AlgebraBuildError(failure)

    def __repr__(self):
        name = self.label or "FDAlgebra"
        return f"<{name}: dim {self.dim}, {self.num_vertices} vertices>"


def nonzero_columns(row):
    """The j with row[j] nonzero, ascending, for a row (or a column, as a
    list) of a structure table; the empty slots are skipped in C, with no
    Python step each."""
    return compress(range(len(row)), row)


def _generation_by_reads(A: FDAlgebra) -> bool:
    """True when the table reads of `FDAlgebra.check_generation` reach
    every basis element from the idempotents; False says nothing."""
    T, reached = A.table, bytearray(A.dim)
    products = [[] for _ in T]  # j -> the nonzero T[g][j] over the arrows g
    for g in A.arrows:
        Tg = T[g]
        for j in nonzero_columns(Tg):
            products[j].append(Tg[j])
    todo = list(A.idempotent_indices)
    for e in todo:
        reached[e] = 1
    for j in todo:  # grows as the b_k join R
        for prod in products[j]:
            new = None
            for k in prod:
                if not reached[k]:
                    if new is not None:
                        break  # a second term outside R
                    new = k
            else:
                if new is not None:
                    reached[new] = 1
                    todo.append(new)
    return all(reached)


def span_products(A: FDAlgebra, left: Echelon, right: Echelon) -> Echelon:
    """The span of all products x*y in A with x in `left`, y in `right`."""
    return Echelon(A.field, A.dim, (A.multiply(x, y) for x in left.rows
                                    for y in right.rows))


# ---------------------------------------------------------------------------
# construction of kQ/I


def _pushed(vectors, maps):
    """The nonzero images of `vectors` under each index map p -> p*a or
    p -> a*p in `maps` (see `path_layer`); coordinates a map leaves out
    are dropped."""
    for vec in vectors:
        for ext in maps:
            out = {ext[k]: c for k, c in vec.items() if k in ext}
            if out:
                yield out


def ideal_slice(field, width, pieces) -> Echelon:
    """The slice sum_a a*I_{w-|a|} + sum_a I_{w-|a|}*a of a two-sided
    ideal pushed from its earlier slices, as a fresh Echelon on `width`
    coordinates.  Each piece (ideal, right, left) pushes the reduced
    echelon rows of an earlier slice through the index maps of one arrow.

    Every row lies in one Peirce block, as relations and the vectors added
    to a slice are combinations of parallel paths, so each map pushes a
    row whole or drops it; a row that a map pushes only in part raises
    AlgebraBuildError.  The right pushes p -> p*a need no elimination:
    `path_layer` numbers p*a increasingly in p, so a pushed row keeps its
    pivot and the zeros of the other rows there, and the pieces are
    listed arrow by arrow, whose paths p*a ("a first") are distinct and
    listed arrow-major, so the pushes of all pieces in order are a reduced
    echelon basis by ascending pivot.  Only the left pushes are added, and
    only until the slice holds every path: the reduced echelon basis of
    the whole space is the same whatever else is added.  The later left
    pushes are still made, so that every row is checked.
    """
    ech = Echelon.of_reduced(field, width, [
        vec for ideal, right, _left in pieces for vec in _pushed_whole(ideal.rows, right)])
    for ideal, _right, left in pieces:
        for vec in _pushed_whole(ideal.rows, left):
            if ech.rank < width:
                ech.add(vec)
    return ech


def _pushed_whole(rows, ext):
    """The nonzero images of `rows` under the index map `ext`; a row that
    `ext` maps only in part raises AlgebraBuildError."""
    for row in rows:
        out = {ext[k]: c for k, c in row.items() if k in ext}
        if out:
            if len(out) != len(row):
                raise AlgebraBuildError(
                    "an ideal row mixes paths that an arrow does and does not extend")
            yield out


def quotient_slices(quiver: Quiver, field: GroundField, max_weight: int):
    """Walk kQ modulo a homogeneous two-sided ideal one weight slice at a time.

    Yields (w, layer, steps, ideal) for w = 0, 1, ...: the path layer of
    weight w, as start vertices, end vertices and arrow-index words, with
    its index maps (see `path_layer`) and the slice of the
    ideal pushed from the earlier slices by `ideal_slice`.  The caller adds
    its weight-w generators to `ideal` before asking for the next slice.
    The walk stops after a window of consecutive slices that hold every
    path, the window being the largest arrow weight (1 on an untagged
    quiver or one without arrows).  Every longer path is then in the
    ideal: dropping its arrows one at a time, each of weight at most the
    window, its weight falls into the window, so it is a multiple of a
    path there.  Only the last window of slices is kept.  Raises
    AdmissibilityError past `max_weight`, and PathBudgetExceeded (from
    `path_layer`) when a layer outgrows PATH_BUDGET.
    """
    window = max((a.degree or 1) for a in quiver.arrows) if quiver.arrows else 1
    layers: dict[int, tuple] = {}
    ideals: dict[int, Echelon] = {}
    w = streak = 0
    while streak < window:
        if w > max_weight:
            raise AdmissibilityError(
                f"no window of {window} empty weight slices up to weight "
                f"{max_weight}; the presentation may not define a finite "
                "dimensional algebra")
        layer, steps = path_layer(quiver, layers, w)
        width = len(layer[2])
        ideal = ideal_slice(field, width,
                            [(ideals[v], right, left) for v, right, left in steps])
        yield w, layer, steps, ideal
        layers[w], ideals[w] = layer, ideal
        layers.pop(w - window, None)
        ideals.pop(w - window, None)
        streak = streak + 1 if ideal.rank == width else 0
        w += 1


def _build_homogeneous(pres: Presentation, max_weight: int):
    """Slice-by-slice quotient construction for homogeneous relations.

    Returns (starts, words, rows): the start vertex and the arrow-index
    word of every walked path, in weight order, and the reduced echelon
    rows of the ideal on those coordinates, keyed by pivot.  Every path of
    a larger weight lies in the ideal.
    """
    q, f = pres.quiver, pres.field
    by_weight: dict[int, list] = {}
    for rel in pres.relations:
        by_weight.setdefault(next(iter(rel.weights())), []).append(rel)
    starts: list[str] = []
    words: list[tuple] = []
    rows: dict[int, dict] = {}
    for w, (w_starts, _ends, w_words), _steps, ideal in quotient_slices(
            q, f, max_weight):
        if w in by_weight:
            # relation terms have length >= 2, so their words are not empty
            index = {word: k for k, word in enumerate(w_words)}
            for rel in by_weight[w]:
                ideal.add({index[q.word(t)]: c for c, t in rel.terms})
        start = len(words)
        starts += w_starts
        words += w_words
        for k, row in zip(ideal.pivots, ideal.rows):
            rows[start + k] = {start + j: c for j, c in row.items()}
    return starts, words, rows


def _build_bounded(pres: Presentation):
    """Joint truncated construction under an explicit nilpotency bound N.

    All paths of length <= N are coordinates.  The ideal is the least
    subspace that holds the relations and is closed under p -> a*p and
    p -> p*a, with the terms past length N truncated.  It is closed on one
    Echelon: each round pushes through the arrow maps only the vectors
    that enlarged the Echelon in the round before, and the walk stops when
    a round adds nothing.  The pushes are linear and every vector added is
    in the span of the enlarging ones, so the final span is closed; it
    holds the relations and only their pushes, so it is the least such
    subspace.  The bound is rejected when
    the length-N slice of the quotient is nonzero, since the promised
    containment of the N-th radical power in the ideal would force it to
    vanish.  Correctness is otherwise conditional on that promise.
    Only untagged quivers reach this construction, so weight is length.
    Returns (starts, words, rows) as `_build_homogeneous` does.
    """
    q, f, N = pres.quiver, pres.field, pres.nilpotency_bound
    starts: list[str] = []
    words: list[tuple] = []
    layers: list[tuple] = []
    # per arrow, the maps p -> p*a and p -> a*p on all paths of length <= N
    maps = [({}, {}) for _ in q.arrows]
    for w in range(N + 1):
        layer, steps = path_layer(q, layers, w)
        for (v, right, left), (jr, jl) in zip(steps, maps):
            start = len(words) - len(layers[v][2])
            jr.update((start + k, len(words) + i) for k, i in right.items())
            jl.update((start + k, len(words) + i) for k, i in left.items())
        layers.append(layer)
        starts += layer[0]
        words += layer[2]
    # relation terms have length >= 2, so the stationary paths need no key
    path_index = {word: k for k, word in enumerate(words) if word}
    ech = Echelon(f, len(words))
    new = [{path_index[q.word(t)]: c for c, t in rel.terms if t.length <= N}
           for rel in pres.relations]
    while new:
        new = list(_pushed([vec for vec in new if ech.add(vec)],
                           [ext for pair in maps for ext in pair]))
    for k in ech.free_columns():
        if len(words[k]) >= N:
            raise AdmissibilityError(
                f"nilpotency bound {N} is too small: the path "
                f"{q.path(starts[k], words[k]).label()} of length {N} does not "
                "vanish, so the promised containment of the N-th radical power "
                "in the ideal is unverifiable")
    return starts, words, dict(zip(ech.pivots, ech.rows))


def build_algebra(pres: Presentation, *, max_weight: int = 256,
                  label: str = "") -> FDAlgebra:
    """Construct A = kQ/I with exact structure constants.

    If the quiver carries arrow degrees the relations must be homogeneous
    for them; otherwise the path-length grading is tried; otherwise the
    presentation must supply a nilpotency bound.  The resulting basis
    consists of path normal forms, carries degree tags in the homogeneous
    cases, and always contains the stationary idempotents and the arrows.
    Raises PathBudgetExceeded when a path layer outgrows PATH_BUDGET.

    Both builders return the coordinate paths, as start vertices and
    arrow-index words, and the ideal's reduced echelon rows on them, keyed
    by pivot.  The basis is the non-pivot paths, and only they are built
    as `Path`s; the others are found by their labels, joined from the
    words.  A basis path is its own normal form, a pivot path's normal
    form is minus its row off the pivot, and a path past the coordinates
    lies in the ideal.
    """
    q, f = pres.quiver, pres.field
    if not q.vertices:
        raise AlgebraBuildError("a quiver needs at least one vertex")

    graded_mode = None
    if q.is_graded:
        for rel in pres.relations:
            if len(rel.weights()) != 1:
                raise AlgebraBuildError(
                    f"relation {rel.label()} is not homogeneous in the "
                    "given arrow degrees")
        graded_mode = "degrees"
    elif all(len({p.length for _, p in rel.terms}) == 1 for rel in pres.relations):
        graded_mode = "length"
    elif pres.nilpotency_bound is None:
        raise AlgebraBuildError(
            "relations are inhomogeneous in every available grading and no "
            "nilpotency_bound was given")

    starts, words, rows = (_build_homogeneous(pres, max_weight) if graded_mode
                           else _build_bounded(pres))
    position = {label: k for k, label in enumerate(word_labels(q, starts, words))}
    column = {k: i for i, k in enumerate(k for k in range(len(words)) if k not in rows)}
    basis_paths = [q.path(starts[k], words[k]) for k in column]
    degrees = [p.weight() for p in basis_paths] if graded_mode else None
    vertex_of = q.vertex_index
    idempotent_indices = [column[position[Path.stationary(v).label()]]
                          for v in q.vertices]
    peirce = [(vertex_of[p.start], vertex_of[p.end]) for p in basis_paths]

    d = len(basis_paths)
    one, neg = f.one(), f.neg
    table = [[{} for _ in range(d)] for _ in range(d)]
    for i, pi in enumerate(basis_paths):
        for j, pj in enumerate(basis_paths):
            if pj.end != pi.start:
                continue
            k = position.get(compose(pi, pj).label())
            if k in rows:
                table[i][j] = {column[c]: neg(x) for c, x in sorted(rows[k].items())
                               if c != k}
            elif k is not None:
                table[i][j] = {column[k]: one}

    A = FDAlgebra(field=f, labels=[p.label() for p in basis_paths],
                  vertex_names=list(q.vertices),
                  idempotent_indices=idempotent_indices, peirce=peirce,
                  table=table, arrows=[column[position[a.name]] for a in q.arrows],
                  degrees=degrees,
                  bound_conditional=not graded_mode, label=label)
    A.validate()
    return A


# ---------------------------------------------------------------------------
# radical, socles, Loewy structure


def _stored(derive):
    """`derive(A)` computed on the first call for each algebra and stored
    on it; later calls return the stored result."""
    @wraps(derive)
    def read(A: FDAlgebra):
        try:
            return A._derived[derive.__name__]
        except KeyError:
            out = A._derived[derive.__name__] = derive(A)
            return out
    return read


def radical_power(A: FDAlgebra, m: int) -> Echelon:
    if m < 1:
        raise ValueError("radical power needs m >= 1")
    chain = radical_chain(A)
    return chain[min(m, len(chain) - 1)]


def arrow_layers(A: FDAlgebra) -> list[Echelon]:
    """The nonzero layers L_0 = span E and L_{k+1} = span of the g v over
    the arrows g and the rows v of L_k, each read off the nonzero entries
    of the arrow's row of the table as sum_k v_k T[g][k].  A product is
    computed only when the support of v meets the nonzero columns of T[g];
    otherwise it is 0, which the layer would drop.  This reads the table
    alone, with no Peirce precondition, so an unvalidated algebra gets the
    same layers.  L_k is spanned by the products of k arrows.  The walk
    ends at the first zero layer, or at L_dim."""
    f, d = A.field, A.dim
    rows = [{k: Tg[k] for k in nonzero_columns(Tg)}
            for Tg in (A.table[g] for g in A.arrows)]

    def products(layer):
        for Tg in rows:
            for v in layer.rows:
                if not Tg.keys().isdisjoint(v):
                    yield combine(f, [(c, Tg[k]) for k, c in v.items() if k in Tg])

    layers = [Echelon(f, d, [A.basis_element(e) for e in A.idempotent_indices])]
    while len(layers) <= d:
        layer = Echelon(f, d, filter(None, products(layers[-1])))
        if not layer.rank:
            break
        layers.append(layer)
    return layers


@_stored
def layer_sums(A: FDAlgebra) -> list[Echelon]:
    """[S_0, S_1, ..., S_m] with S_k = sum_{j >= k} L_j over the arrow
    layers L_0, ..., L_m, from one elimination, deepest layer first: S_k is
    the span once the rows of L_m, ..., L_k are added, and each S_k with
    k >= 1 is kept as a copy.  S_0 is the span the idempotents and arrows
    generate, which `radical_chain` takes as A and `check_generation`
    reads when its table reads do not close; the others are the radical
    powers."""
    layers = arrow_layers(A)
    span, sums = Echelon(A.field, A.dim), []
    for k in range(len(layers) - 1, -1, -1):
        for v in layers[k].rows:
            span.add(v)
        sums.append(span.copy() if k else span)
    return sums[::-1]


@_stored
def radical_chain(A: FDAlgebra) -> list[Echelon]:
    """[A, rad, rad^2, ...] down to the first zero power (inclusive).

    chain[k] = S_k = sum_{j >= k} L_j over the arrow layers (see
    `layer_sums`), and chain[0] = S_0 is all of A, whose reduced echelon
    form is the identity, as the idempotents and arrows generate A on every
    validated algebra; where they do not, AlgebraBuildError is raised, as
    the proof needs generation.  Proof:
    with J = sum_g gA over the arrows g, J^k = sum_g g J^{k-1} (as A = 1 A)
    is spanned by the products of k arrows times A, and by generation A =
    sum_j L_j, so J^k = sum_j L_{j+k}.  A nonzero L_dim makes J^dim != 0.
    Otherwise J is a nilpotent two-sided ideal, as A = span E + J, with A/J
    spanned by the idempotents E: the Jacobson radical.
    """
    sums = layer_sums(A)
    if sums[0].rank != A.dim:
        raise AlgebraBuildError("the idempotents and arrows do not generate the algebra")
    if len(sums) > A.dim:
        raise AlgebraBuildError(
            "the ideal generated by the arrows is not nilpotent; "
            "the algebra is not of the promised shape")
    return sums + [Echelon(A.field, A.dim)]


def trace_form_radical(A: FDAlgebra) -> Echelon:
    """The radical computed intrinsically as the kernel of the trace form
    (x, y) -> trace of left multiplication by x*y; valid in characteristic
    zero, where this kernel is the Jacobson radical.  Serves as an
    independent cross-check of the arrow-derived `radical_power(A, 1)`."""
    if A.field.characteristic != 0:
        raise ValueError("the trace-form radical requires characteristic zero")
    f = A.field
    # trace of L_{b_k}: the (j, j) coordinate of b_k * b_j summed over j
    traces = []
    for k in range(A.dim):
        t = f.zero()
        for j in range(A.dim):
            t = f.add(t, A.table[k][j].get(j, f.zero()))
        traces.append(t)
    # coordinate j of the Gram matrix maps to {i: trace(b_i * b_j)}
    gram = {j: {} for j in range(A.dim)}
    for i in range(A.dim):
        for j in range(A.dim):
            v = f.zero()
            for k, c in A.table[i][j].items():
                v = f.add(v, f.mul(c, traces[k]))
            if v:
                gram[j][i] = v
    return row_reduce(f, gram)


def loewy_length(A: FDAlgebra) -> int:
    """Least m with rad^m = 0."""
    return len(radical_chain(A)) - 1


@dataclass
class SocleData:
    left: list[Echelon]       # socle of Ae_i, one per vertex
    right: list[Echelon]      # socle of e_jA, one per vertex
    bimodule: Echelon         # socle of A as a bimodule


def _annihilator(A: FDAlgebra, side) -> Echelon:
    """The vectors that every arrow representative a kills by
    multiplication on `side`: "L" for a x, "R" for x a."""
    f, T, d = A.field, A.table, A.dim
    # b_k maps to one block of d coordinates per arrow a
    return row_reduce(f, {
        k: {off * d + r: x for off, a in enumerate(A.arrows)
            for r, x in (T[a][k] if side == "L" else T[k][a]).items()}
        for k in range(d)})


@_stored
def socles(A: FDAlgebra) -> SocleData:
    """Left socles of the Ae_i, right socles of the e_jA and the bimodule
    socle: read off the construction when A is a trivial extension (see
    `_extension_socles`), and otherwise from two joint kernels of
    multiplication by the arrows.

    Left multiplication keeps sources, so the left kernel is the direct
    sum of the left socles, whose reduced echelon rows are its rows split
    by the source of each pivot, as any subset of a reduced echelon basis
    is one; the right kernel splits by target alike.  The bimodule socle
    is the left kernel intersected with the right one: the sums
    x = sum_p c_p row_p over the rows of the left kernel, keyed by their
    pivots p, with x a = 0 for every arrow a, so c is the kernel of
    c -> (sum_p c_p row_p a)_a.  The rows are reduced, so x is c_p at each
    pivot p, and its least coordinate is the least p with c_p != 0: the
    reduced echelon rows of c give those of the socle.
    """
    base = A._derived.get("extension_of")
    if base is not None and _radical_is_non_idempotent_span(base):
        return _extension_socles(A, base)
    f, d, T = A.field, A.dim, A.table
    left = _annihilator(A, "L")

    def split(kernel, end):
        return [Echelon.of_reduced(f, d, [row for p, row in zip(kernel.pivots, kernel.rows)
                                          if A.peirce[p][end] == i])
                for i in range(A.num_vertices)]

    meet = row_reduce(f, {
        p: {off * d + r: x for off, a in enumerate(A.arrows)
            for r, x in combine(f, ((c, T[k][a]) for k, c in row.items())).items()}
        for p, row in zip(left.pivots, left.rows)})
    row_at = dict(zip(left.pivots, left.rows))
    bimodule = Echelon.of_reduced(f, d, [
        combine(f, ((c, row_at[p]) for p, c in vec.items())) for vec in meet.rows])
    return SocleData(left=split(left, 0), right=split(_annihilator(A, "R"), 1),
                     bimodule=bimodule)


def _radical_is_non_idempotent_span(A: FDAlgebra) -> bool:
    """rad A is spanned by the basis vectors of A that are not idempotents,
    read off the rows of `radical_chain(A)[1]`: its rank is dim A - n and
    no row has a coordinate at an idempotent.  False also when A has no
    radical chain."""
    try:
        rad = radical_chain(A)[1]
    except AlgebraBuildError:
        return False
    idem = set(A.idempotent_indices)
    return (rad.rank == A.dim - A.num_vertices
            and all(idem.isdisjoint(row) for row in rad.rows))


def _extension_socles(T: FDAlgebra, A: FDAlgebra) -> SocleData:
    """The socles of T = A ⋉ DA, which `trivial_extension` has validated,
    when rad A is the span of A's non-idempotent basis vectors: the left
    socle of T e_i and the right socle of e_i T are both span(e_i*), and
    the bimodule socle is the span of all the e_v*, where e_v* is the dual
    of the idempotent e_v.  They are placed without elimination.

    Proof.  Let J = rad A, the span of the products of arrows of A; by the
    precondition it is the span of the non-idempotent basis vectors, of
    codimension n.  J ⊕ DA is then a two-sided ideal of T that holds every
    arrow of T.  T is generated by its idempotents and arrows, so the span
    of the products of at least one arrow of T has codimension at most n,
    and lies in J ⊕ DA, so it is J ⊕ DA.  Hence x is killed by every arrow
    on the left iff it is killed by J ⊕ DA.  Take x = (a, f).
    (0, g)(a, 0) = g·a with (g·a)(y) = g(ay), which is 0 for every g only
    if a = 0.  Then (r, 0)(0, f) = r·f with (r·f)(y) = f(yr), which is 0
    for every r in J iff f vanishes on AJ = J, that is, iff f is in the
    span of the e_v*.
    The right socle follows in the same way, from f·r and a·g, and the
    bimodule socle is their intersection.  e_v* lies in the Peirce block
    (v, v), so it is the part of vertex v on either side.
    """
    f, width, one = T.field, T.dim, T.field.one()
    duals = [A.dim + e for e in A.idempotent_indices]
    return SocleData(left=[Echelon.of_reduced(f, width, [{k: one}]) for k in duals],
                     right=[Echelon.of_reduced(f, width, [{k: one}]) for k in duals],
                     bimodule=Echelon.of_reduced(f, width, [{k: one} for k in sorted(duals)]))


def is_local(A: FDAlgebra) -> bool:
    """True iff there is a single primitive idempotent (one vertex)."""
    return A.num_vertices == 1


def left_socle_in_bimodule_socle(A: FDAlgebra) -> bool:
    data = socles(A)
    return all(data.bimodule.contains_space(s) for s in data.left)


@dataclass
class SelfinjectivityCertificate:
    permutation: tuple[int, ...]       # i -> pi(i), vertex indices


@dataclass
class SelfinjectivityRefusal:
    vertex: int
    reason: str


@_stored
def selfinjectivity(A: FDAlgebra):
    """A Nakayama permutation pi with Ae_i isomorphic to D(e_{pi(i)}A), or a
    refusal naming the first vertex that no j qualifies for.

    The test used: j qualifies for i iff dim Ae_i = dim e_jA and the right
    socle of e_jA is one dimensional of simple type S_i.  A lift of the
    dual top generator then gives a surjection Ae_i -> D(e_jA) which the
    dimension count makes an isomorphism.  The right socle is stable under
    the e_i on the left, so a one dimensional one lies in one block e_jAe_i
    and its type i is the source of its pivot.  A socle type is one vertex,
    so the sets of j qualifying for distinct i are disjoint, and pi(i) is
    read off as the least j qualifying for i; no matching is searched.
    """
    data = socles(A)
    left_dims = [sum(1 for s, _t in A.peirce if s == i) for i in range(A.num_vertices)]
    right_dims = [sum(1 for _s, t in A.peirce if t == j) for j in range(A.num_vertices)]
    socle_type = [A.peirce[soc.pivots[0]][0] if soc.rank == 1 else None
                  for soc in data.right]

    perm = []
    for i in range(A.num_vertices):
        of_type = [j for j in range(A.num_vertices) if socle_type[j] == i]
        j = next((j for j in of_type if right_dims[j] == left_dims[i]), None)
        if j is None:
            reason = (f"dim Ae_{A.vertex_names[i]} = {left_dims[i]} != "
                      f"dim e_{A.vertex_names[of_type[0]]}A = {right_dims[of_type[0]]}"
                      if of_type else
                      f"no indecomposable projective has simple right socle of "
                      f"type S_{A.vertex_names[i]}")
            return SelfinjectivityRefusal(vertex=i, reason=reason)
        perm.append(j)
    return SelfinjectivityCertificate(permutation=tuple(perm))


def is_selfinjective(A: FDAlgebra) -> bool:
    return isinstance(selfinjectivity(A), SelfinjectivityCertificate)


def quiver_of(A: FDAlgebra):
    """The quiver of A read off from rad/rad^2, with the basis indices of
    its arrow representatives.

    The number of arrows i -> j is dim e_j (rad/rad^2) e_i; the
    representatives are the basis elements at the non-pivot coordinates of
    rad^2 restricted to each Peirce block of the radical.
    """
    rad2 = radical_power(A, 2)
    idem = set(A.idempotent_indices)
    reps: list[int] = []
    for k_src in range(A.num_vertices):
        for k_tgt in range(A.num_vertices):
            block = [k for k, (s, t) in enumerate(A.peirce)
                     if (s, t) == (k_src, k_tgt) and k not in idem]
            if block:
                reps += [block[c] for c in rad2.restrict(block).free_columns()]
    return Quiver(A.vertex_names, arrows_of(A, reps)), reps


def arrows_of(A: FDAlgebra, indices) -> list[Arrow]:
    """The quiver arrows of the basis elements `indices` of A: each is
    named by its basis label, goes from the source to the target of its
    Peirce block, and has its degree when A is graded."""
    names, deg = A.vertex_names, A.degrees
    return [Arrow(A.basis_labels[k], names[A.peirce[k][0]], names[A.peirce[k][1]],
                  deg[k] if deg is not None else None) for k in indices]
