"""Cycle certificates, graded Cartan tests, and the verdict engine."""

import random
from collections import Counter

import pytest

from trivext.algebra import build_algebra
from trivext.corpus import load_corpus_algebra
from trivext.criteria import (CartanShapeError, GradedCartanData, TruncatedCycleCertificate,
                              _bfs_exact, cartan_criterion,
                              find_two_truncated_cycle, graded_cartan,
                              hhdim_verdict, trivial_extension_determinant_shape,
                              verify_cycle_certificate, zero_composition_graph)
from trivext.dsl import parse_presentation
from trivext.linalg import IntPolynomial, poly_det
from trivext.trivial_extension import trivial_extension

from reference import bfs_by_scan


def build(text, **kw):
    return build_algebra(parse_presentation(text), **kw)


def poly(*coeffs):
    return IntPolynomial(coeffs)


def test_zero_composition_graph_extension_of_ground_field(extensions):
    T = extensions["semisimple_k"].T
    adj = zero_composition_graph(T)
    assert adj == {0: [0]}  # the single dual loop composes with itself to zero


def test_zero_composition_graph_a2_extension_has_no_edges(extensions):
    T = extensions["path_a2"].T
    adj = zero_composition_graph(T)
    assert all(not targets for targets in adj.values())


def test_zero_composition_graph_nakayama(extensions):
    tri = extensions["nakayama_cycle_2"]
    T = tri.T
    adj = zero_composition_graph(T)
    new_idx = [i for i, g in enumerate(T.arrows) if g in tri.new_arrows]
    # products of the two dual-part arrows vanish in both orders
    i, j = new_idx
    assert j in adj[i] and i in adj[j]


def test_cycle_for_extension_of_ground_field(extensions):
    T = extensions["semisimple_k"].T
    cert = find_two_truncated_cycle(T)
    assert cert is not None and cert.length == 1
    assert verify_cycle_certificate(T, cert)


def test_cycle_for_nakayama_is_dual_pair(extensions):
    tri = extensions["nakayama_cycle_2"]
    T = tri.T
    cert = find_two_truncated_cycle(T, among=tri.new_arrows)
    assert cert is not None
    assert cert.length == 2
    assert all(name.endswith("*") for name in cert.arrow_names)
    assert verify_cycle_certificate(T, cert)


def test_no_cycle_for_a2_extension(extensions):
    assert find_two_truncated_cycle(extensions["path_a2"].T) is None


def test_cycle_determinism_lexicographic(extensions):
    # T(k[x]/x^2) has two self-loops with zero square: the old loop comes
    # first in enumeration order and must be chosen
    T = extensions["dual_numbers"].T
    cert = find_two_truncated_cycle(T)
    assert cert.arrow_names == ["x"]
    again = find_two_truncated_cycle(T)
    assert again.arrow_names == cert.arrow_names


def _brute_force_has_cycle(A):
    """Independent oracle: enumerate arrow sequences up to length #arrows."""
    adj = zero_composition_graph(A)
    n = len(A.arrows)

    def extend(path):
        if len(path) > n:
            return False
        for nxt in adj[path[-1]]:
            if nxt == path[0] and len(path) >= 1:
                return True
            if nxt not in path and extend(path + [nxt]):
                return True
        return False

    return any(extend([v]) for v in adj)


def test_cycle_search_matches_brute_force(algebras, extensions):
    for name in algebras:
        for B in (algebras[name], extensions[name].T):
            found = find_two_truncated_cycle(B) is not None
            assert found == _brute_force_has_cycle(B), name


def _tarjan_scc(nodes, adj):
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def scc_two_truncated_cycle(A, among=None):
    """Reference: the cycle search that first keeps the nodes of the
    strongly connected components that carry a cycle."""
    full_adj = zero_composition_graph(A)
    if among is not None:
        keep = {i for i, g in enumerate(A.arrows) if g in among}
        adj = {i: [j for j in full_adj[i] if j in keep] for i in keep}
        nodes = sorted(keep)
    else:
        adj = full_adj
        nodes = sorted(adj)
    cyclic = set()
    for comp in _tarjan_scc(nodes, adj):
        if len(comp) > 1 or comp[0] in adj[comp[0]]:
            cyclic.update(comp)
    if not cyclic:
        return None
    lengths = {v: bfs_by_scan(adj, v)[v] for v in sorted(cyclic)}
    best = min(lengths.values())
    start = min(v for v, ln in lengths.items() if ln == best)
    reach = [{start}]
    for k in range(1, best + 1):
        reach.append({v for v in adj if any(w in reach[k - 1] for w in adj[v])})
    seq = [start]
    for step in range(1, best):
        seq.append(min(w for w in adj[seq[-1]] if w in reach[best - step]))
    return TruncatedCycleCertificate(
        arrow_names=[A.basis_labels[A.arrows[i]] for i in seq],
        arrow_indices=list(seq),
        base_vertex=A.vertex_names[A.peirce[A.arrows[seq[0]]][0]])


class GraphAlgebra:
    """Arrows whose products are 0 or not as a seeded coin decides: b*a
    vanishes iff (a, b) is in `zero`.  Enough of an algebra for the cycle
    search, which only reads the labels, Peirce blocks and table entries
    of arrow representatives: arrow i is basis element x_i, with seeded
    endpoints, and `table[b][a]` is the product b*a.  `new` holds a seeded
    subset of the arrows to search among."""

    def __init__(self, rng):
        r = rng.randrange(1, 4)
        self.vertex_names = [str(v) for v in range(r)]
        seeded = [(rng.randrange(r), rng.randrange(r), rng.random() < 0.5)
                  for _ in range(rng.randrange(1, 9))]
        self.peirce = [(src, tgt) for src, tgt, _new in seeded]
        self.basis_labels = [f"x{i}" for i in range(len(seeded))]
        self.arrows = list(range(len(seeded)))
        self.new = [i for i, (_src, _tgt, new) in enumerate(seeded) if new]
        n, density = len(self.arrows), rng.choice((0.1, 0.3, 0.6))
        self.zero = {(a, b) for a in range(n) for b in range(n)
                     if rng.random() < density}
        self.table = [[{} if (a, b) in self.zero else {a: 1} for a in range(n)]
                      for b in range(n)]


def test_cycle_search_matches_scc_reference(algebras, extensions):
    rng = random.Random(20260601)
    # each algebra with the arrows to search among: none of A's are new
    cases = [(X, new) for name in algebras for X, new in (
        (algebras[name], []), (extensions[name].T, extensions[name].new_arrows))]
    cases += [(X, X.new) for X in (GraphAlgebra(rng) for _ in range(400))]
    outcomes = set()
    for X, new in cases:
        for among in (None, new):
            got = find_two_truncated_cycle(X, among=among)
            assert got == scc_two_truncated_cycle(X, among), (X, among)
            if got is not None:
                # each arrow times the one before it, the wrap-around included
                names, n = got.arrow_names, got.length
                assert got.to_json()["zero_products"] == [
                    {"later": names[(i + 1) % n], "earlier": names[i]} for i in range(n)]
            outcomes.add((among is None, got is None))
    # both outcomes occur with and without the restriction
    assert len(outcomes) == 4


def test_bfs_matches_scan_reference():
    # seeded digraphs, some empty, with self-loops, repeated edges and
    # targets that nothing reaches or that lie outside the graph
    rng = random.Random(20260715)
    graphs = [{}, {0: []}, {0: [0]}, {0: [1], 1: []}]
    for _ in range(300):
        n, density = rng.randrange(0, 9), rng.choice((0.05, 0.2, 0.5))
        graphs.append({v: [w for w in range(n) for _ in range(rng.choice((1, 1, 2)))
                           if rng.random() < density] for v in range(n)})
    kinds = Counter()
    for adj in graphs:
        preds = {}
        for v, succ in adj.items():
            for w in succ:
                preds.setdefault(w, []).append(v)
        for target in list(adj) + [len(adj)]:
            got = _bfs_exact(preds, target)
            assert got == bfs_by_scan(adj, target), (adj, target)
            kinds["reached" if target in got else "unreached"] += 1
            kinds["self-loop"] += target in adj.get(target, ())
            kinds["walk longer than 2"] += max(got.values(), default=0) > 2
    assert len(kinds) == 4 and all(kinds.values()), kinds


def test_extended_verdict_derives_no_radical_chain_of_the_base():
    # the certify path reads the socles and the Nakayama permutation of A,
    # never its radical chain
    A = load_corpus_algebra("nakayama_cycle_3")
    v = hhdim_verdict(A, extend=True)
    assert v.is_infinite and v.hypotheses["selfinjective"]
    assert {"socles", "selfinjectivity"} <= set(A._derived)
    assert "radical_chain" not in A._derived


def test_certificate_rejects_tampering(extensions):
    T = extensions["nakayama_cycle_2"].T
    cert = find_two_truncated_cycle(T)
    assert verify_cycle_certificate(T, cert)
    bad = type(cert)(arrow_names=["a", "a"], arrow_indices=[0, 0],
                     base_vertex="1")
    assert not verify_cycle_certificate(T, bad)


# -- graded Cartan -------------------------------------------------------------


def test_cartan_of_ground_field(algebras):
    g = graded_cartan(algebras["semisimple_k"])
    assert g.r == 1 and g.top_degree == 0
    assert g.determinant == poly(1)


def test_cartan_of_extension_of_ground_field(extensions):
    g = graded_cartan(extensions["semisimple_k"].T)
    assert g.determinant == poly(1, 1)  # 1 + x


def test_cartan_of_a2_extension(extensions):
    g = graded_cartan(extensions["path_a2"].T)
    entries = [[str(g.matrix[i][j]) for j in range(2)] for i in range(2)]
    assert entries == [["1 + x^2", "x"], ["x", "1 + x^2"]]
    assert g.determinant == poly(1, 0, 1, 0, 1)  # 1 + x^2 + x^4


def test_cartan_component_sum_is_dimension(algebras, extensions):
    for name in algebras:
        for B in (algebras[name], extensions[name].T):
            if not B.is_graded:
                continue
            g = graded_cartan(B)
            total = sum(g.components[l][i][j] for l in range(g.top_degree + 1)
                        for i in range(g.r) for j in range(g.r))
            assert total == B.dim, name


def test_cartan_determinant_at_one_is_ungraded_cartan_determinant(algebras,
                                                                  extensions):
    def ungraded_det(B):
        r = B.num_vertices
        counts = [[0] * r for _ in range(r)]
        for (src, tgt) in B.peirce:
            counts[src][tgt] += 1
        # integer determinant by cofactor expansion (desk scale)
        def det(m):
            k = len(m)
            if k == 1:
                return m[0][0]
            total = 0
            for j in range(k):
                minor = [row[:j] + row[j + 1:] for row in m[1:]]
                total += (-1) ** j * m[0][j] * det(minor)
            return total
        return det(counts)

    for name in algebras:
        for B in (algebras[name], extensions[name].T):
            if not B.is_graded:
                continue
            g = graded_cartan(B)
            assert sum(g.determinant.coeffs) == ungraded_det(B), name  # det C(1)


def test_cartan_criterion_gate():
    fires = cartan_criterion
    g = graded_cartan(build("field Q\nvertices v\n"))
    assert not fires(g, 0).fires  # det = 1
    tri = trivial_extension(build("field Q\nvertices v\n"))
    g = graded_cartan(tri.T)
    assert fires(g, 0).fires  # det = 1 + x
    res = fires(g, 5)
    assert not res.fires
    assert "characteristic" in res.reason


def test_cartan_requires_grading():
    A = build("field Q\nvertices v\narrow x : v -> v\n"
              "relation x*x - x*x*x\nnilpotency_bound 4\n")
    with pytest.raises(ValueError):
        graded_cartan(A)


def test_determinant_shape_reports(extensions):
    cases = {
        "semisimple_k": (1, 1),     # r=1, s=0: degree 1
        "semisimple_k2": (2, 2),    # r=2, s=0: (1+x)^2, degree 2
        "path_a2": (2, 4),          # r=2, s=1: 1 + x^2 + x^4
        "five_vertex_weighted": (5, 35),
    }
    for name, (r, degree) in cases.items():
        g = graded_cartan(extensions[name].T)
        rep = trivial_extension_determinant_shape(g)
        assert rep.r == r and rep.det_degree == degree, name
        assert rep.det_constant_term == 1
        assert rep.det_leading_coefficient == 1
        assert rep.corner_components_identity
        assert rep.offsets_zero_constant_term and rep.offsets_degree_bounded


def test_determinant_shape_values(extensions):
    assert graded_cartan(extensions["semisimple_k"].T).determinant == poly(1, 1)
    assert graded_cartan(extensions["semisimple_k2"].T).determinant == \
        poly(1, 2, 1)  # (1+x)^2
    assert graded_cartan(extensions["path_a2"].T).determinant == \
        poly(1, 0, 1, 0, 1)


def test_determinant_shape_raises_on_wrong_input(algebras):
    # feeding a non-extension (the base algebra itself) must fail the shape
    g = graded_cartan(algebras["path_a2"])
    with pytest.raises(CartanShapeError):
        trivial_extension_determinant_shape(g)


def test_determinant_shape_offsets_at_top_degree_zero(algebras):
    # at top degree 0 the forced diagonal part 1 + x^0 is 2, which no
    # degree-0 component meets, so both offset flags are False and k, whose
    # corners are identities and whose determinant is 1, still fails
    with pytest.raises(CartanShapeError, match="offsets_zero_constant_term=False, "
                                               "offsets_degree_bounded=False"):
        trivial_extension_determinant_shape(graded_cartan(algebras["semisimple_k"]))


def test_determinant_shape_reads_the_top_component(extensions):
    # one off-diagonal entry of T(path_a2)'s top-degree component raised by
    # one: that entry minus its forced part then has degree top, past top - 1
    g = graded_cartan(extensions["path_a2"].T)
    comps = [[list(row) for row in c] for c in g.components]
    comps[g.top_degree][0][1] += 1
    rows = [[IntPolynomial([comps[l][i][j] for l in range(g.top_degree + 1)])
             for j in range(g.r)] for i in range(g.r)]
    bad = GradedCartanData(r=g.r, top_degree=g.top_degree, components=comps,
                           matrix=rows, determinant=poly_det(rows))
    with pytest.raises(CartanShapeError, match="offsets_zero_constant_term=True, "
                                               "offsets_degree_bounded=False"):
        trivial_extension_determinant_shape(bad)


# -- the verdict engine --------------------------------------------------------


def test_verdict_local_instance():
    v = hhdim_verdict(build("field Q\nvertices v\narrow x : v -> v\n"
                            "relation x*x\n"), extend=True)
    assert v.is_infinite
    assert v.certificate_kind == "two_truncated_cycle"
    assert v.hypotheses["local"]
    assert verify_cycle_certificate(v.algebra, v.cycle)


def test_verdict_graded_instance_needs_cartan(algebras):
    v = hhdim_verdict(algebras["path_a2"], extend=True)
    assert v.is_infinite
    assert v.certificate_kind == "graded_cartan_determinant"
    assert str(v.cartan.determinant) == "1 + x^2 + x^4"
    by_name = {t.criterion: t.outcome for t in v.trace}
    assert by_name["two_truncated_cycle"] == "none"
    assert by_name["graded_cartan_determinant"] == "certificate"


def test_verdict_negative_control(algebras):
    v = hhdim_verdict(algebras["semisimple_k"], extend=False)
    assert v.conclusion == "unknown"
    assert v.certificate_kind is None
    assert str(v.cartan.determinant) == "1"


def test_verdict_records_both_criteria(algebras):
    for extend in (False, True):
        v = hhdim_verdict(algebras["dual_numbers"], extend=extend)
        assert {t.criterion for t in v.trace} == \
            {"two_truncated_cycle", "graded_cartan_determinant"}


def test_verdict_never_claims_finite(algebras):
    # hereditary path algebra: homology vanishes in high degrees, yet the
    # engine only says "unknown"
    v = hhdim_verdict(algebras["path_a2"], extend=False)
    assert v.conclusion == "unknown"


def test_verdict_json_roundtrip(algebras):
    import json
    v = hhdim_verdict(algebras["nakayama_cycle_2"], extend=True)
    blob = json.dumps(v.to_json(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["conclusion"] == "infinite_hhdim"
    assert parsed["certificate"]["kind"] == "two_truncated_cycle"
