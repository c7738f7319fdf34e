"""Desk-scale Hochschild homology via bar complexes.

Both variants span chains in degree n by tuples (b_0, r_1, ..., r_n) of
basis elements and share the boundary

    b(a_0 x ... x a_n) = sum_{i=0}^{n-1} (-1)^i a_0 x ... x a_i a_{i+1} x ... x a_n
                         + (-1)^n  a_n a_0 x a_1 x ... x a_{n-1}.

* `"normalized"` (the default) is the normalized E-relative bar complex
  B (x)_{E^e} (rad B)^{(x)_E n} over the separable subalgebra E = kQ_0
  spanned by the vertex idempotents (Cibils' reduction for quiver
  algebras).  The r_i are non-idempotent basis elements, and a tuple is a
  basis element only if it composes cyclically through the Peirce blocks:
  b_0 r_1, r_1 r_2, ..., r_n b_0 are all products across matching
  idempotents.  The non-idempotent basis elements span an ideal, so the
  middle products stay in rad B and need no reduction.  With M[u][v] the
  number of non-idempotent basis elements b = e_u b e_v,
  dim C_n = sum over basis elements b_0 = e_u b_0 e_v of (M^n)[v][u]; for a
  local algebra this is d (d-1)^n, and every further vertex cuts it down.
  `hh_dims` checks the precondition once per call and raises ValueError
  otherwise: `FDAlgebra.check_peirce` proves that every basis element
  lies in the Peirce block `FDAlgebra.peirce` records for it, and the
  non-idempotent ones must span an ideal.
* `"full"` is the unnormalized bar complex B (x) B^{(x) n} over k, with
  d^(n+1) tuples; it is kept as a cross-check oracle.

Ranks are computed exactly and incrementally by `SparseRank`, which
takes integer columns.  Over Q the structure constants are scaled once, in
`_BarData.integer_tables`, by the lcm L of their denominators: every
boundary term holds exactly one product, so the boundary is scaled by L
and keeps its rank.  `commutator_rank` reads its columns off the same
scaled table.  Over F_p the residues are integers already.  Row keys
number tuples in decreasing lexicographic order, so the pivot `SparseRank`
takes, at the smallest key, is the largest tuple.

`hh_dims` ranks each boundary b_n as its coboundary delta_n = b_n^T :
C_{n-1} -> C_n, whose columns `_Coboundary` reads off the inverted table
`_BarData.cofaces`.  It goes up in n and clears as it goes (Chen-Kerber's
twist, in the cohomology form of de Silva, Morozov and Vejdemo-Johansson):
delta_{n+1} skips the columns at the pivot rows of the reduced delta_n.
This keeps the rank.  A reduced column R lies in im delta_n with pivot its
largest tuple i, so R = c e_i + (smaller tuples), c != 0; as
delta_{n+1} R = 0, delta_{n+1}(e_i) lies in the span of the columns of
smaller tuples, and by induction over the pivots in the span of the
columns of non-pivot tuples.  So delta_n eliminates only dim C_{n-1} -
rank b_{n-1} columns, of which all but dim HH_{n-1} enlarge it, and
`hh_dims(B, N)` enumerates C_0, ..., C_N only: the tuples of C_{N+1} are
row keys of delta_{N+1}, so the tuple cap applies to C_0, ..., C_N.

Most of these columns become pivots exactly as they stand, so a column
is built only when elimination needs it (Bauer's emergent pairs, in
Ripser).  Each face of the column of u is one coface list of
`_BarData.cofaces`, shifted by a constant that depends on u, and within
one face the keys are distinct.  The lists are sorted once per algebra:
in every degree the keys of a list are place[i] (j P + l), or
b_0 P^n + s for the wrap face, with l, s < P = dbar, so their order does
not depend on the degree or the face.  So the column's smallest key j is
the least of the faces' first keys, and its entry there is the sum c of
the first coefficients of the faces that reach j; `_coboundary_rank`
reads (j, c) without building the column.  If c != 0 (mod p) and j is
not yet a pivot, the column needs no reduction: the row key of u is
written into `SparseRank.pivots` as the pivot at j, counted in the rank,
and the column is built, stored as `add` would have stored it, only when
a later reduction meets j.  Otherwise (c cancels, or j is a pivot) the
column is built by `_Coboundary.column` and added.  The elimination is
the one that adds every column, deferred: the same pivots, so the same
clearing and the same ranks.

The lead costs O(1) per tuple, not one step per face.  With
h_i = -(u_0 place_0 + ... + u_{i-1} place_{i-1}), face i < n of u (the
first face is i = 0) leads at m_i[u_i] + u_i place_i + (P - 1) h_i -
key(u), m_i[x] the first key of face i's list at x.  Only key(u) depends
on the suffix, so the least of these values over the prefix faces, with
its coefficient summed over ties, is carried from each prefix
u_0 ... u_i to its extensions, together with the first key and
coefficient of the wrap face at its head b_0.  `_BarData.block_trie`
enumerates the tuples as a trie of Peirce blocks whose walks share the
nodes of common prefixes, so this is one state per distinct prefix.  The
trie yields its last two levels as one node; under a prefix state, the
least value of the node's faces at each of its suffixes is a constant of
the suffix plus (P - 1) h, computed once per node.  So `_coboundary_rank`
is one loop per degree, and each tuple costs its key, the `cleared`
test, two comparisons (with the prefix's least value and with the wrap
face) and then a write into `pivots` or an add.

Columns whose tuples have different total degree (for a graded algebra)
have disjoint row support, so elimination never mixes degree blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .algebra import FDAlgebra
from .linalg import SparseRank

DEFAULT_TUPLE_CAP = 50_000


@dataclass
class ChainModuleDescriptor:
    degree: int
    dimension: int
    variant: str


@dataclass
class HHReport:
    variant: str
    n_max: int
    dims: list          # (n, dim HH_n) for the degrees that were computable
    truncated_at: int | None = None  # chain degree refused by the cap

    def corroborates_infinite(self) -> bool | None:
        """Whether dim HH_N >= 1 at the top degree N = n_max, which shows
        HHdim >= N; None if the cap cut that degree off.  HHdim = infinity
        means HH_n != 0 for infinitely many n, so lower degrees may vanish."""
        dims = dict(self.dims)
        return dims[self.n_max] >= 1 if self.n_max in dims else None


class _BarData:
    """Shared tables for one algebra/variant pair."""

    def __init__(self, B: FDAlgebra, variant: str):
        if variant == "full":
            left = right = [0] * B.dim
            self.slots, m = list(range(B.dim)), 1
        elif variant == "normalized":
            if not B.check_peirce():
                raise ValueError("the basis elements do not each lie in a "
                                 "single Peirce block")
            right, left = zip(*B.peirce)
            self.slots, m = B.radical_basis_indices(), B.num_vertices
            rad = set(self.slots)
            if any(not rad.issuperset(B.table[i][j]) for i in rad for j in rad):
                raise ValueError("the non-idempotent basis elements do not "
                                 "span an ideal")
        else:
            raise ValueError(f"unknown bar complex variant {variant!r}")
        self.B = B
        self.d = B.dim
        self.dbar = len(self.slots)
        # blocks[u][v]: the slots s with r_s = e_u r_s e_v, ascending
        self.blocks = [[[] for _ in range(m)] for _ in range(m)]
        for s, k in enumerate(self.slots):
            self.blocks[left[k]][right[k]].append(s)
        # heads[(u, v)]: the basis elements b_0 = e_u b_0 e_v, ascending
        self.heads: dict = {}
        for b in range(B.dim):
            self.heads.setdefault((left[b], right[b]), []).append(b)
        self._walks = [[[int(u == v) for v in range(m)] for u in range(m)]]

    def walks(self, n: int) -> list:
        """walks(n)[u][v]: the number of slot sequences s_1, ..., s_n with
        r_{s_1} = e_u r_{s_1}, r_{s_n} = r_{s_n} e_v and each r_{s_i} r_{s_(i+1)}
        across a matching idempotent."""
        m = len(self.blocks)
        while len(self._walks) <= n:
            last = self._walks[-1]
            self._walks.append([[sum(row[w] * len(self.blocks[w][v]) for w in range(m))
                                 for v in range(m)] for row in last])
        return self._walks[n]

    def chain_dim(self, n: int) -> int:
        walks = self.walks(n)
        return sum(len(heads) * walks[v][u] for (u, v), heads in self.heads.items())

    def block_trie(self, n: int):
        """The degree-n tuples (b_0, s_1, ..., s_n), s_i slot indices, as a
        trie of Peirce blocks: yield (depth, blocks) for each node in
        depth-first preorder, depth 0 for the heads b_0 of one Peirce block
        and depth i for the slot block that s_i ranges over.  A node above
        depth n - 1 has blocks = (members,).  A node at depth n - 1 has one
        child, the block of the last step into the goal vertex, and is
        yielded with it as one concatenated node, blocks = (members, last);
        for n = 0 the heads are the leaves, blocks = (heads,).  The tuples
        are the products of the members along each path from depth 0 to
        depth n, grouped by path in lexicographic order of the blocks'
        vertices and lexicographic within a path.  Every node lies on such
        a path, as `walks` says which moves can still reach the goal, and
        paths that share a prefix of blocks share its nodes."""
        walks = self.walks(n)
        m = len(self.blocks)
        for (goal, start), heads in self.heads.items():
            if not walks[start][goal]:
                continue
            if not n:
                yield 0, (heads,)
                continue
            # steps[r][w]: the (vertex, block) moves out of w that leave a
            # walk of r - 1 steps to goal
            steps = [None, None] + [[[(v, block) for v, block in enumerate(self.blocks[w])
                                      if block and self._walks[r - 1][v][goal]]
                                     for w in range(m)] for r in range(2, n + 1)]
            stack = [iter([(start, heads)])]
            while stack:
                step = next(stack[-1], None)
                if step is None:
                    stack.pop()
                    continue
                depth = len(stack) - 1
                v, block = step
                if depth == n - 1:
                    yield depth, (block, self.blocks[v][goal])
                else:
                    yield depth, (block,)
                    stack.append(iter(steps[n - depth][v]))

    @cached_property
    def integer_tables(self):
        """(scale, first, mid, wrap): the products b_0 r_s, r_s r_t and
        r_s b_0 as lists of (index, integer), r_s r_t indexed by slot and
        the others by basis element, all multiplied by `scale`, the lcm of
        the denominators of the table over Q (1 over F_p).  Each entry of
        the table is scaled once; in the "full" variant `first` is the
        whole scaled table."""
        B, slots = self.B, self.slots
        T = B.table
        scale = 1
        if B.field.characteristic == 0:
            scale = lcm(1, *(c.denominator for row in T for prod in row
                             for c in prod.values()))
        table = [[[(k, int(c * scale)) for k, c in prod.items()] for prod in row]
                 for row in T]
        slot_of = {k: s for s, k in enumerate(slots)}
        first = [[row[k] for k in slots] for row in table]
        mid = [[[(slot_of[k], c) for k, c in table[j][l]] for l in slots] for j in slots]
        wrap = [table[k] for k in slots]
        return scale, first, mid, wrap

    @cached_property
    def cofaces(self):
        """`integer_tables` inverted: for each of first, mid and wrap, and
        each basis element or slot k, the (j, l, c) with c * k in [j][l],
        in descending order of the pair the coface's key reads first:
        (j, l) for first and mid, (l, j) = (b_0, s) for wrap.  The second
        entry of that pair is a slot, below `dbar`, so the order is that of
        the keys `_Coboundary` gives the cofaces in every degree, reversed."""
        inv = [[[] for _ in range(size)] for size in (self.d, self.dbar, self.d)]
        for table, out in zip(self.integer_tables[1:], inv):
            for j, row in enumerate(table):
                for l, prod in enumerate(row):
                    for k, c in prod:
                        out[k].append((j, l, c))
        for cof in inv[0] + inv[1]:
            cof.sort(reverse=True)
        for cof in inv[2]:
            cof.sort(key=lambda e: (e[1], e[0]), reverse=True)
        return inv


class _Coboundary:
    """delta_n of one `_BarData`, read a column at a time.

    A degree-(n-1) tuple u = (u_0, ..., u_{n-1}) is named by its row key
    -key(u), where key(u) = sum u_i place_i is its number with digits
    u_0 = b_0, u_1 = s_1, ... in base `dbar`.  Its column holds the
    integer coefficient of u in the boundary of each degree-n tuple (zeros
    not dropped), at that tuple's row key.  Each face contributes one
    coface list of `cofaces`, shifted by a constant that depends on u
    only: the entries of u before the face move one place higher (times
    dbar), those after it keep their places.  `cofaces` keeps each list in
    ascending order of its shifted keys, so each face's smallest key is
    its first entry.
    """

    def __init__(self, data: _BarData, n: int):
        first, mid, wrap = data.cofaces
        self.data, self.n = data, n
        self.P = P = data.dbar
        self.place = place = [P ** (n - 1 - i) for i in range(n)]  # of entry i of u
        top = P * place[0]                                         # of b_0 in C_n

        def shifted(table, key, sign):
            return [[(-key(j, l), sign * c) for j, l, c in cof] for cof in table]

        self.first = shifted(first, lambda b0, s: b0 * top + s * place[0], 1)
        # mid[i]: face i, u_i split into the entries i and i + 1 of the coface
        self.mid = [None] + [shifted(mid, lambda s, t, i=i: s * place[i - 1] + t * place[i],
                                     (-1) ** i) for i in range(1, n)]
        self.wrap = shifted(wrap, lambda s, b0: b0 * top + s, (-1) ** n)

    def column(self, r: int) -> dict:
        """The column delta_n(u) of the tuple u with row key r, as a dict
        {row key: integer}."""
        P, n, place = self.P, self.n, self.place
        key = rest = -r
        u = [0] * n
        for i in range(n - 1, 0, -1):
            rest, u[i] = divmod(rest, P)
        u[0] = rest
        rest = key - u[0] * place[0]
        col = {}
        for k, c in self.first[u[0]]:
            col[k - rest] = c
        head = 0
        for i in range(1, n):
            head += u[i - 1] * place[i - 1]
            base = (P - 1) * head + key - u[i] * place[i]
            for k, c in self.mid[i][u[i]]:
                k -= base
                col[k] = col.get(k, 0) + c
        base = P * rest
        for k, c in self.wrap[u[0]]:
            k -= base
            col[k] = col.get(k, 0) + c
        return col


def chain_module(B: FDAlgebra, n: int, variant: str = "normalized") -> ChainModuleDescriptor:
    data = _BarData(B, variant)
    return ChainModuleDescriptor(degree=n, dimension=data.chain_dim(n), variant=variant)


def _coboundary_rank(data: _BarData, n: int, cleared: set) -> tuple[int, set]:
    """rank delta_n and the row keys of its pivots, from the columns of the
    degree-(n-1) tuples outside `cleared`, the pivot rows of delta_{n-1},
    in one walk of `_BarData.block_trie(n - 1)` (module docstring).  Each
    tuple's lead (j, c) is the least value of its faces, with the
    coefficients summed over ties: those of the prefix, carried in a state
    (h, g, c, w, y) with h = -(the prefix's key), g and c the least value
    of its faces and its coefficient, w and y the wrap face's first key
    and coefficient at its head; those of the suffix, read off the node;
    and the wrap face.  A column whose leading entry is a new pivot is
    stored as its row key and built only if a later reduction meets it;
    the others are built and reduced."""
    delta = _Coboundary(data, n)
    p = data.B.field.characteristic
    eng = SparseRank(p, delta.column)
    pivots, add, column = eng.pivots, eng.add, delta.column
    P, place = delta.P, delta.place
    q, p0 = P - 1, place[0]
    # the first key of a face without cofaces: above dbar * key(u) for
    # every u, so that it never leads
    big = data.d * (P + 1) ** n + 1
    # lead[i][x]: (first key of face i at u_i = x, plus x place_i; its
    # coefficient; x place_i), and wrap[b]: (first key of the wrap face at
    # u_0 = b, plus P b place_0; its coefficient)
    lead = [[(cof[0][0] + x * place[i], cof[0][1], x * place[i]) if cof
             else (big, 0, x * place[i]) for x, cof in enumerate(faces)]
            for i, faces in enumerate([delta.first, *delta.mid[1:]])]
    wrap = [(cof[0][0] + P * b * p0, cof[0][1]) if cof else (big, 0)
            for b, cof in enumerate(delta.wrap)]

    def extend(states, depth, members):
        """The states of the prefixes one entry longer, each state extended
        by each member at `depth`; the heads, at depth 0, set the wrap face."""
        faces = lead[depth]
        out = []
        for h, g, c, w, y in states:
            qh = q * h
            for e in members:
                G, x, shift = faces[e]
                G += qh
                if not depth:
                    w, y = wrap[e]
                out.append((h - shift, G, x, w, y) if G < g else
                           (h - shift, g, c + x, w, y) if G == g else
                           (h - shift, g, c, w, y))
        return out

    # the empty prefix, whose wrap face is empty
    root = (0, big, 0, big, 0)
    states = [[root]]
    deferred, suffixes = 0, {}
    last = max(n - 2, 0)  # the depth of the concatenated nodes
    for depth, blocks in data.block_trie(n - 1):
        if depth < last:
            states[depth + 1:] = [extend(states[depth], depth, blocks[0])]
            continue
        # The tuples under the node are the prefixes of states[depth] times
        # its suffixes.  Values are compared less r, the tuple's row key:
        # the wrap face leads at w + P r, that is at w + q r.  A suffix is
        # (k, G, x, q k): k = -(its key), and G and x the least value of its
        # faces, and of the wrap face when it holds b_0, and the coefficient
        # there, from the empty prefix.  Blocks are lists of `data`, so the
        # same blocks at the same depth have the same suffixes.
        node = (depth, *map(id, blocks))
        suffix = suffixes.get(node)
        if suffix is None:
            ends = [root]
            for i, members in enumerate(blocks, depth):
                ends = extend(ends, i, members)
            suffix = suffixes[node] = []
            for k, G, x, w, y in ends:
                W = w + q * k
                suffix.append((k, W, y, q * k) if W < G else
                              (k, G, x + y, q * k) if W == G else (k, G, x, q * k))
        for h, g, c, w, y in states[depth]:
            qh = q * h
            a = w + qh
            for k, j, x, qk in suffix:
                r = h + k
                if r in cleared:
                    continue
                j += qh
                if j > g:
                    j, x = g, c
                elif j == g:
                    x += c
                W = a + qk
                if W < j:
                    j, x = W, y
                elif W == j:
                    x += y
                j += r
                # row keys are <= 0: j > 0 only if every face is empty
                if (x % p if p else x) and j not in pivots:
                    pivots[j] = r
                    deferred += 1
                elif j <= 0:
                    add(column(r))
    eng.rank += deferred
    return eng.rank, set(pivots)


def hh_dims(B: FDAlgebra, n_max: int, variant: str = "normalized",
            cap: int = DEFAULT_TUPLE_CAP) -> HHReport:
    """dim HH_n for 0 <= n <= n_max.

    dim HH_n = dim C_n - rank b_n - rank b_{n+1}, with b_0 = 0, each rank
    taken on the cleared coboundary.  delta_{n+1} enumerates C_n, so the
    tuple cap applies to C_0, ..., C_{n_max}; C_{n_max+1} only holds row
    keys.  If C_k overflows the cap, the report is truncated at k and
    gives the degrees below it.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    data = _BarData(B, variant)
    ranks: dict[int, int] = {}
    truncated_at = None
    cleared: set = set()
    for n in range(1, n_max + 2):
        size = data.chain_dim(n - 1)
        if size > cap:
            truncated_at = n - 1
            break
        # delta_n is zero when C_n or C_(n-1) is empty, and clears nothing
        ranks[n], cleared = (_coboundary_rank(data, n, cleared)
                             if size and data.chain_dim(n) else (0, set()))
    dims = []
    for n in range(0, n_max + 1):
        if n + 1 not in ranks:
            break
        dims.append((n, data.chain_dim(n) - ranks.get(n, 0) - ranks[n + 1]))
    return HHReport(variant=variant, n_max=n_max, dims=dims,
                    truncated_at=truncated_at)


def commutator_rank(B: FDAlgebra) -> int:
    """Rank of the span of all commutators of basis elements; an
    independent route to dim HH_0 = dim B - rank[B, B].  The columns are
    read off the integer table of the "full" bar data, which scaling by
    the lcm of the denominators keeps at the same rank."""
    table = _BarData(B, "full").integer_tables[1]
    eng = SparseRank(B.field.characteristic)
    for i, row in enumerate(table):
        for j, prod in enumerate(row):
            col = dict(prod)
            for k, c in table[j][i]:
                col[k] = col.get(k, 0) - c
            if any(col.values()):
                eng.add(col)
    return eng.rank
