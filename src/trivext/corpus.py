"""The bundled example corpus and its check battery.

Every entry is a presentation file under ``corpus_data/``; the runner
builds the algebra and its trivial extension, verifies the structural
invariants, and checks that the verdict engine certifies what the
hypotheses promise: a 2-truncated cycle for local and selfinjective
inputs (over the dual-part arrows for the latter), the Cartan determinant
test for graded inputs, and cycle certificates for the double extensions.
The ground-field entry itself is the negative control and must stay
"unknown".
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .algebra import (FDAlgebra, arrows_of, build_algebra, is_local,
                      left_socle_in_bimodule_socle, radical_power,
                      selfinjectivity, SelfinjectivityCertificate, socles,
                      span_products, quiver_of, trace_form_radical)
from .criteria import (cartan_criterion, find_two_truncated_cycle, graded_cartan,
                       hhdim_verdict, trivial_extension_determinant_shape,
                       verify_cycle_certificate)
from .dsl import parse_presentation
from .hochschild import hh_dims
from .linalg import Echelon
from .trivial_extension import (TrivialExtensionData, check_new_products_vanish,
                                extended_quiver, trivial_extension)


@dataclass
class CorpusEntry:
    name: str
    local: bool
    selfinjective: bool
    graded: bool
    double_extension: bool = False  # also run the T(T(A)) checks


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("semisimple_k", local=True, selfinjective=True, graded=True),
    CorpusEntry("dual_numbers", local=True, selfinjective=True, graded=True,
                double_extension=True),
    CorpusEntry("local_two_loops", local=True, selfinjective=False, graded=True),
    CorpusEntry("semisimple_k2", local=False, selfinjective=True, graded=True),
    CorpusEntry("nakayama_cycle_2", local=False, selfinjective=True, graded=True),
    CorpusEntry("nakayama_cycle_3", local=False, selfinjective=True, graded=True),
    CorpusEntry("path_a2", local=False, selfinjective=False, graded=True,
                double_extension=True),
    CorpusEntry("five_vertex_weighted", local=False, selfinjective=False,
                graded=True),
)

HH_CORROBORATION_DEGREE = 4
HH_CORROBORATION_CAP = 200_000


def corpus_text(name: str) -> str:
    return (resources.files("trivext") / "corpus_data" / f"{name}.quiver").read_text()


def load_corpus_algebra(name: str) -> FDAlgebra:
    return build_algebra(parse_presentation(corpus_text(name)), label=name)


def symmetric_form_checks(tri: TrivialExtensionData) -> dict:
    """Symmetry, associativity and nondegeneracy of <(a,f),(b,g)> = f(b)+g(a)."""
    T = tri.T
    f = T.field
    n = T.dim
    gram = [[tri.symmetric_form(T.basis_element(i), T.basis_element(j))
             for j in range(n)] for i in range(n)]
    symmetric = all(gram[i][j] == gram[j][i] for i in range(n) for j in range(n))
    nondegenerate = Echelon(f, n, gram).rank == n

    def form(u, v):
        return tri.symmetric_form(u, v)

    associative = True
    for i in range(n):
        bi = T.basis_element(i)
        for j in range(n):
            prod_ij = T.table[i][j]
            for k in range(n):
                bk = T.basis_element(k)
                if form(prod_ij, bk) != form(bi, T.table[j][k]):
                    associative = False
                    break
            if not associative:
                break
        if not associative:
            break
    return {"symmetric": symmetric, "associative": associative,
            "nondegenerate": nondegenerate}


def radical_decomposition_checks(tri: TrivialExtensionData) -> dict:
    """rad T = rad(A) + DA and rad^2 T = rad^2(A) + (rad·DA + DA·rad),
    compared as computed subspaces; over Q the radical of T is also
    cross-checked against the trace-form radical."""
    A, T = tri.base, tri.T
    f = T.field
    d = A.dim

    idem = set(A.idempotent_indices)
    rad_A_in_T = Echelon(f, T.dim, [{k: f.one()} for k in range(d) if k not in idem])
    da = Echelon(f, T.dim, [{k: f.one()} for k in range(d, 2 * d)])
    rad_T = radical_power(T, 1)
    rad_matches = rad_T == Echelon(f, T.dim, rad_A_in_T.rows + da.rows)

    trace_matches = True
    if f.characteristic == 0:
        trace_matches = trace_form_radical(T) == rad_T

    rad2_T = radical_power(T, 2)
    pieces = ((rad_A_in_T, rad_A_in_T), (rad_A_in_T, da), (da, rad_A_in_T))
    rad2_matches = rad2_T == Echelon(f, T.dim, [
        v for left, right in pieces for v in span_products(T, left, right).rows])
    return {"radical_decomposes": rad_matches,
            "radical_trace_form_agrees": trace_matches,
            "radical_square_decomposes": rad2_matches}


def quiver_match_checks(tri: TrivialExtensionData) -> dict:
    """The quiver read off from rad/rad^2 of T(A) has the same arrow counts
    per vertex pair as the extended quiver, and the dual-part arrow counts
    match the Peirce dimensions of the bimodule socle."""
    T = tri.T
    qT, _reps = quiver_of(T)
    counts_from_radical: dict = {}
    for a in qT.arrows:
        key = (a.source, a.target)
        counts_from_radical[key] = counts_from_radical.get(key, 0) + 1
    counts_from_ext: dict = {}
    for a in extended_quiver(tri).arrows:
        key = (a.source, a.target)
        counts_from_ext[key] = counts_from_ext.get(key, 0) + 1

    A = tri.base
    soc = socles(A).bimodule
    soc_block_dims: dict = {}
    for i in range(A.num_vertices):
        for j in range(A.num_vertices):
            block = [k for k, (src, tgt) in enumerate(A.peirce)
                     if (src, tgt) == (j, i)]
            dim = soc.restrict(block).rank
            if dim:
                soc_block_dims[(A.vertex_names[i], A.vertex_names[j])] = dim
    new_counts: dict = {}
    for a in arrows_of(T, tri.new_arrows):
        key = (a.source, a.target)
        new_counts[key] = new_counts.get(key, 0) + 1
    return {"extended_quiver_matches_radical": counts_from_radical == counts_from_ext,
            "new_arrow_counts_match_socle": new_counts == soc_block_dims}


def nakayama_incoming_arrow_checks(A: FDAlgebra, tri: TrivialExtensionData) -> dict:
    """For selfinjective input: every vertex i receives a new arrow, and one
    of its new arrows starts at the Nakayama vertex pi(i)."""
    cert = selfinjectivity(A)
    if not isinstance(cert, SelfinjectivityCertificate):
        return {"selfinjective": False}
    incoming = {i: set() for i in range(A.num_vertices)}
    for k in tri.new_arrows:
        src, tgt = tri.T.peirce[k]
        incoming[tgt].add(src)
    every_vertex = all(incoming[i] for i in range(A.num_vertices))
    from_pi = all(cert.permutation[i] in incoming[i] for i in range(A.num_vertices))
    return {"selfinjective": True, "every_vertex_has_incoming_new_arrow": every_vertex,
            "incoming_arrow_from_nakayama_vertex": from_pi}


def entry_checks(entry: CorpusEntry) -> tuple[dict, TrivialExtensionData]:
    """All checks for one corpus entry, with values that are booleans (or
    small reports) keyed by check name, and the entry's T(A)."""
    A = load_corpus_algebra(entry.name)
    out: dict = {"name": entry.name, "dim": A.dim}
    checks: dict = {}
    checks["associative"] = A.check_associativity()
    # one lookup check proves the unit, idempotent and Peirce axioms
    checks["idempotents_complete"] = checks["peirce"] = A.check_peirce()
    checks["graded_products"] = A.check_graded_products()
    checks["local_as_expected"] = is_local(A) == entry.local
    checks["selfinjective_as_expected"] = (
        isinstance(selfinjectivity(A), SelfinjectivityCertificate)
        == entry.selfinjective)
    checks["graded_as_expected"] = A.is_graded == entry.graded

    verdict = hhdim_verdict(A, extend=True)
    tri = verdict.extension
    T = tri.T
    checks["extension_dim_doubles"] = T.dim == 2 * A.dim
    checks["extension_associative"] = T.check_associativity()
    checks["dual_part_products_vanish"] = check_new_products_vanish(tri)
    checks.update(symmetric_form_checks(tri))
    checks.update(radical_decomposition_checks(tri))
    checks.update(quiver_match_checks(tri))

    if entry.selfinjective:
        checks.update(nakayama_incoming_arrow_checks(A, tri))
        cyc = find_two_truncated_cycle(T, among=tri.new_arrows)
        checks["dual_part_cycle_found"] = cyc is not None and \
            verify_cycle_certificate(T, cyc)
    if left_socle_in_bimodule_socle(A):
        incoming = {T.peirce[k][1] for k in tri.new_arrows}
        checks["weak_socle_gives_incoming_arrows"] = (
            incoming == set(range(A.num_vertices)))

    if A.dim and (entry.local or entry.selfinjective or entry.graded):
        checks["extension_certified_infinite"] = verdict.is_infinite
    if verdict.cycle is not None:
        checks["cycle_certificate_verifies"] = verify_cycle_certificate(
            verdict.algebra, verdict.cycle)
    if entry.graded and A.field.characteristic == 0:
        g = graded_cartan(T)
        try:
            trivial_extension_determinant_shape(g)
            checks["cartan_shape"] = True
        except Exception:
            checks["cartan_shape"] = False
        checks["cartan_criterion_fires"] = cartan_criterion(
            g, T.field.characteristic).fires

    rep = hh_dims(T, HH_CORROBORATION_DEGREE, cap=HH_CORROBORATION_CAP)
    checks["hh_corroboration"] = bool(rep.corroborates_infinite())
    out["hh_dims"] = rep.dims

    if entry.double_extension:
        tri2 = trivial_extension(T)
        checks["double_extension_dim"] = tri2.T.dim == 4 * A.dim
        cyc = find_two_truncated_cycle(tri2.T)
        checks["double_extension_cycle"] = cyc is not None and \
            verify_cycle_certificate(tri2.T, cyc)
        rep = hh_dims(tri2.T, HH_CORROBORATION_DEGREE, cap=HH_CORROBORATION_CAP)
        checks["double_extension_hh_corroboration"] = bool(rep.corroborates_infinite())

    out["checks"] = checks
    out["ok"] = all(bool(v) for v in checks.values())
    return out, tri


def negative_control_checks(k: FDAlgebra, a2: TrivialExtensionData) -> dict:
    """The ground field `k` itself: no certificate may be produced without
    extension, and the graded A_2 extension `a2` must be certified by the
    determinant alone (its zero-composition graph has no cycle)."""
    checks = {}
    v = hhdim_verdict(k, extend=False)
    checks["ground_field_unknown"] = v.conclusion == "unknown"
    checks["ground_field_no_cycle"] = v.cycle is None
    checks["ground_field_det_one"] = (v.cartan is not None
                                      and str(v.cartan.determinant) == "1")
    checks["a2_extension_no_cycle"] = find_two_truncated_cycle(a2.T) is None
    checks["a2_extension_cartan_fires"] = cartan_criterion(
        graded_cartan(a2.T), 0).fires
    return {"name": "negative_controls", "checks": checks,
            "ok": all(checks.values())}


def run_corpus() -> dict:
    """Run the whole corpus battery; deterministic entry order.  The
    negative controls reuse the algebra of the semisimple_k entry and the
    T(A) of the path_a2 entry."""
    entries, extensions = [], {}
    for e in CORPUS:
        out, extensions[e.name] = entry_checks(e)
        entries.append(out)
    entries.append(negative_control_checks(extensions["semisimple_k"].base,
                                           extensions["path_a2"]))
    return {"entries": entries, "ok": all(e["ok"] for e in entries)}
