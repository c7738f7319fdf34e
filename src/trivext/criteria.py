"""Certificates of infinite Hochschild homology dimension.

Two one-directional criteria are implemented:

* a 2-truncated cycle: a cyclic sequence of arrows in which every
  consecutive product (including the wrap-around) is zero in the algebra;
  its existence forces the homology to be nonzero in all high degrees;
* over a field of characteristic zero, a graded Cartan determinant
  different from 1 for a positively graded algebra whose degree-0 part is
  spanned by the idempotents.

Absence of a certificate never proves finiteness; the verdict engine only
answers "infinite, with certificate" or "unknown".
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import FDAlgebra, is_local, is_selfinjective
from .linalg import IntPolynomial, poly_det
from .trivial_extension import TrivialExtensionData, trivial_extension


@dataclass
class TruncatedCycleCertificate:
    """Arrows alpha_1..alpha_n composing cyclically, with each recorded
    product (later arrow times earlier arrow) evaluating to zero."""

    arrow_names: list
    arrow_indices: list
    base_vertex: str

    @property
    def length(self) -> int:
        return len(self.arrow_names)

    def to_json(self):
        return {
            "kind": "two_truncated_cycle",
            "arrows": list(self.arrow_names),
            "base_vertex": self.base_vertex,
            "length": self.length,
            "zero_products": [{"later": a, "earlier": b} for a, b in zip(
                self.arrow_names[1:] + self.arrow_names[:1], self.arrow_names)],
        }


def zero_composition_graph(A: FDAlgebra) -> dict[int, list[int]]:
    """Directed graph on the arrow representatives: an edge a -> b means
    b can follow a (target of a = source of b) and the product b*a
    vanishes in the algebra: the table entry of the two representatives,
    which is what `multiply` returns on their unit vectors.  The nodes are
    positions in `A.arrows`, and the endpoints are read off `A.peirce`."""
    T, peirce, arrows = A.table, A.peirce, A.arrows
    adj: dict[int, list[int]] = {i: [] for i in range(len(arrows))}
    for i, a in enumerate(arrows):
        for j, b in enumerate(arrows):
            if peirce[a][1] == peirce[b][0] and not T[b][a]:
                adj[i].append(j)
    return adj


def find_two_truncated_cycle(A: FDAlgebra, among=None):
    """The lexicographically least minimum-length cycle in the
    zero-composition graph, re-verified by `verify_cycle_certificate`, or
    None.  A failed re-check raises RuntimeError, so every returned cycle
    has passed it.

    The cycle starts at the least node of least return length `best`.
    With `back` the BFS distances to that node, step k goes to the least
    successor w with back[w] == best - k: a successor with a shorter way
    back would close a shorter cycle through the start.

    With `among`, a collection of basis indices, the search runs on the
    arrows whose representatives are in it only: the new arrows of a
    trivial extension, say.  An arrow's name is its basis label and its
    source is read off `A.peirce`.
    """
    adj = zero_composition_graph(A)
    if among is not None:
        keep = {i for i, k in enumerate(A.arrows) if k in among}
        adj = {i: [j for j in adj[i] if j in keep] for i in sorted(keep)}

    preds: dict = {}   # the reversed graph, built once for every search
    for v, succ in adj.items():
        for w in succ:
            preds.setdefault(w, []).append(v)
    best = start = back = None
    for v in sorted(adj):
        dist = _bfs_exact(preds, v)
        if v in dist and (best is None or dist[v] < best):
            best, start, back = dist[v], v, dist
    if start is None:
        return None

    seq = [start]
    for k in range(1, best):
        seq.append(min(w for w in adj[seq[-1]] if back.get(w) == best - k))

    names = [A.basis_labels[A.arrows[i]] for i in seq]
    cert = TruncatedCycleCertificate(
        arrow_names=names,
        arrow_indices=seq,
        base_vertex=A.vertex_names[A.peirce[A.arrows[start]][0]])
    if not verify_cycle_certificate(A, cert):
        raise RuntimeError("cycle extraction produced a non-composable pair "
                           "or a nonzero product")
    return cert


def _bfs_exact(preds, target):
    """Shortest positive walk length from each node to `target`: one
    breadth-first search from `target` along the reversed edges `preds`."""
    dist = {}
    frontier, k = [target], 0
    while frontier:
        k += 1
        nxt = []
        for w in frontier:
            for v in preds.get(w, ()):
                if v not in dist:
                    dist[v] = k
                    nxt.append(v)
        frontier = nxt
    return dist


def verify_cycle_certificate(A: FDAlgebra, cert: TruncatedCycleCertificate) -> bool:
    """Standalone re-check of a cycle certificate: composability and the
    table entry of each consecutive pair of representatives, with each
    arrow named by its basis label and its endpoints read off `A.peirce`."""
    by_name = {A.basis_labels[k]: k for k in A.arrows}
    reps = [by_name.get(name) for name in cert.arrow_names]
    if not reps or None in reps:
        return False
    return not any(A.peirce[earlier][1] != A.peirce[later][0] or A.table[later][earlier]
                   for earlier, later in zip(reps, reps[1:] + reps[:1]))


# ---------------------------------------------------------------------------
# graded Cartan data


class CartanShapeError(RuntimeError):
    """The graded Cartan matrix of a graded trivial extension violates its
    forced shape; indicates an implementation bug."""


@dataclass
class GradedCartanData:
    r: int
    top_degree: int
    components: list            # integer matrices C^0..C^top
    matrix: list                # rows of IntPolynomial entries C(x)_{i,j}
    determinant: IntPolynomial

    def to_json(self):
        return {
            "r": self.r,
            "top_degree": self.top_degree,
            "components": self.components,
            "entries": [[str(self.matrix[i][j]) for j in range(self.r)]
                        for i in range(self.r)],
            "determinant": str(self.determinant),
            "determinant_coeffs": self.determinant.to_json(),
        }


def graded_cartan(A: FDAlgebra) -> GradedCartanData:
    """Component matrices (C^l)_{i,j} = dim e_j A_l e_i, the polynomial
    matrix C(x) = sum_l C^l x^l, and its exact determinant."""
    if A.degrees is None:
        raise ValueError("graded Cartan data needs a degree-tagged algebra")
    degree_zero = [k for k, dg in enumerate(A.degrees) if dg == 0]
    if sorted(degree_zero) != sorted(A.idempotent_indices):
        raise ValueError("the degree-0 part is not spanned by the idempotents")
    r = A.num_vertices
    s = A.top_degree
    comps = [[[0] * r for _ in range(r)] for _ in range(s + 1)]
    for k, (src, tgt) in enumerate(A.peirce):
        comps[A.degrees[k]][src][tgt] += 1
    rows = [[IntPolynomial([comps[l][i][j] for l in range(s + 1)])
             for j in range(r)] for i in range(r)]
    return GradedCartanData(r=r, top_degree=s, components=comps, matrix=rows,
                            determinant=poly_det(rows))


@dataclass
class CartanCriterionResult:
    fires: bool
    reason: str


def cartan_criterion(g: GradedCartanData, characteristic: int) -> CartanCriterionResult:
    """Infinite homology dimension when det C(x) != 1, valid over
    characteristic zero only."""
    if characteristic != 0:
        return CartanCriterionResult(
            fires=False, reason="criterion requires characteristic zero")
    if g.determinant == IntPolynomial((1,)):
        return CartanCriterionResult(
            fires=False, reason="graded Cartan determinant equals 1")
    return CartanCriterionResult(
        fires=True,
        reason=f"graded Cartan determinant {g.determinant} differs from 1")


@dataclass
class DeterminantShapeReport:
    r: int
    top_degree: int
    corner_components_identity: bool
    offsets_zero_constant_term: bool
    offsets_degree_bounded: bool
    det_constant_term: int
    det_leading_coefficient: int
    det_degree: int
    expected_degree: int


def trivial_extension_determinant_shape(g: GradedCartanData) -> DeterminantShapeReport:
    """Verify the forced shape of the graded Cartan matrix of a graded
    trivial extension with top degree s+1: the degree-0 and top-degree
    components are identity matrices, each entry minus its forced diagonal
    part has zero constant term and degree at most s, and the determinant
    is monic of degree exactly r(s+1) with constant term 1.

    Entry ij minus its forced part is sum_l C^l_ij x^l - d_ij(1 + x^top),
    where C^l is the degree-l component and d the Kronecker delta.  For
    top >= 1 its constant term is C^0_ij - d_ij, its x^top coefficient
    C^top_ij - d_ij and it has no higher term, so the two offset flags read
    the corners.  For top = 0 the forced part is 2 d_ij, which no degree-0
    component meets: its diagonal counts the idempotents, one each, as
    `graded_cartan` checks, so both offset flags are False there."""
    r, top = g.r, g.top_degree
    ident = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    bottom_identity = g.components[0] == ident
    top_identity = g.components[top] == ident
    corners = bottom_identity and top_identity
    offsets_const = top >= 1 and bottom_identity
    offsets_deg = top >= 1 and top_identity

    det = g.determinant
    report = DeterminantShapeReport(
        r=r, top_degree=top,
        corner_components_identity=corners,
        offsets_zero_constant_term=offsets_const,
        offsets_degree_bounded=offsets_deg,
        det_constant_term=det.constant_term,
        det_leading_coefficient=det.leading_coefficient,
        det_degree=det.degree,
        expected_degree=r * top)
    ok = (corners and offsets_const and offsets_deg
          and det.constant_term == 1 and det.leading_coefficient == 1
          and det.degree == r * top)
    if not ok:
        raise CartanShapeError(
            f"graded Cartan matrix of the trivial extension violates its "
            f"forced shape: {report}")
    return report


# ---------------------------------------------------------------------------
# the verdict engine


@dataclass
class CriterionOutcome:
    criterion: str
    outcome: str
    detail: str = ""


@dataclass
class Verdict:
    conclusion: str                       # "infinite_hhdim" | "unknown"
    certificate_kind: str | None
    cycle: TruncatedCycleCertificate | None
    cartan: GradedCartanData | None
    trace: list
    hypotheses: dict = dc_field(default_factory=dict)
    extension: TrivialExtensionData | None = None
    algebra: FDAlgebra | None = None

    @property
    def is_infinite(self) -> bool:
        return self.conclusion == "infinite_hhdim"

    def to_json(self):
        cert = None
        if self.certificate_kind == "two_truncated_cycle":
            cert = self.cycle.to_json()
        elif self.certificate_kind == "graded_cartan_determinant":
            cert = {"kind": "graded_cartan_determinant",
                    "determinant": str(self.cartan.determinant),
                    "determinant_coeffs": self.cartan.determinant.to_json()}
        return {
            "conclusion": self.conclusion,
            "certificate": cert,
            "trace": [{"criterion": t.criterion, "outcome": t.outcome,
                       "detail": t.detail} for t in self.trace],
            "hypotheses": self.hypotheses,
        }


def hhdim_verdict(A: FDAlgebra, extend: bool = False) -> Verdict:
    """Run both criteria on the algebra (or on its trivial extension when
    `extend` is set) and assemble a sound verdict.

    The cycle criterion is consulted first; the Cartan criterion needs a
    grading and characteristic zero.  Both outcomes are always recorded in
    the trace.  Absence of certificates yields "unknown", never a claim of
    finiteness.
    """
    hypotheses = {}
    extension = None
    if extend:
        hypotheses = {
            "local": is_local(A),
            "selfinjective": is_selfinjective(A),
            "graded": A.is_graded,
        }
        extension = trivial_extension(A)
        B = extension.T
    else:
        B = A
    if A.bound_conditional:
        hypotheses["conditional_on_nilpotency_bound"] = True

    trace = []
    cycle = find_two_truncated_cycle(B)
    trace.append(CriterionOutcome(
        criterion="two_truncated_cycle",
        outcome="certificate" if cycle else "none",
        detail=("cycle " + " ".join(cycle.arrow_names)) if cycle else
               "zero-composition graph is acyclic"))

    cartan_data = None
    cartan_fired = False
    if B.is_graded:
        cartan_data = graded_cartan(B)
        res = cartan_criterion(cartan_data, B.field.characteristic)
        cartan_fired = res.fires
        trace.append(CriterionOutcome(
            criterion="graded_cartan_determinant",
            outcome="certificate" if res.fires else "inconclusive",
            detail=res.reason))
    else:
        trace.append(CriterionOutcome(
            criterion="graded_cartan_determinant",
            outcome="inconclusive",
            detail="algebra carries no positive grading with semisimple "
                   "degree-0 part"))

    kind = ("two_truncated_cycle" if cycle is not None else
            "graded_cartan_determinant" if cartan_fired else None)
    return Verdict(conclusion="infinite_hhdim" if kind else "unknown",
                   certificate_kind=kind, cycle=cycle, cartan=cartan_data,
                   trace=trace, hypotheses=hypotheses, extension=extension,
                   algebra=B)
