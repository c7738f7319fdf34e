"""T(A) = A ⋉ DA: structure constants, extended quiver, relations."""

import copy
import random
import sys
from collections import Counter
from fractions import Fraction
from types import ModuleType

import pytest

import trivext.trivial_extension as trivial_extension_module
from trivext.algebra import (AlgebraBuildError, FDAlgebra, arrows_of, build_algebra,
                             loewy_length, radical_chain, selfinjectivity,
                             SelfinjectivityCertificate,
                             left_socle_in_bimodule_socle, socles,
                             trace_form_radical)
from trivext.dsl import RelationExpr, parse_presentation
from trivext.linalg import QQ, Echelon
from trivext.quiver import Arrow, Path, PathBudgetExceeded, compose
from trivext.trivial_extension import (_slice_kernel, check_new_products_vanish,
                                       extended_quiver, relations_up_to,
                                       trivial_extension, validate_extension)

from reference import (extension_table_by_scan, new_arrows_by_block_scan, phi,
                       relations_adding_every_kernel_vector, slice_kernel_by_blocks,
                       slice_kernel_of_paths)
from test_builder import random_presentation
from test_linalg import is_q_scalar
from test_validation import associative_on_all_triples


def build(text, **kw):
    return build_algebra(parse_presentation(text), **kw)


def test_package_attribute_is_the_module():
    # the package does not shadow its module with the function of the
    # same name
    assert isinstance(trivial_extension_module, ModuleType)
    assert trivial_extension_module.trivial_extension is trivial_extension


def test_extension_of_ground_field_is_dual_numbers():
    k = build("field Q\nvertices v\n")
    tri = trivial_extension(k)
    T = tri.T
    assert T.dim == 2
    beta = tri.new_arrows
    assert len(beta) == 1
    b = beta[0]
    assert T.peirce[b] == (0, 0)
    x = T.basis_element(b)
    assert T.multiply(x, x) == {}  # the dual part squares to zero
    # compare with k[x]/(x^2) by matching structure constants on (1, beta)
    dual = build("field Q\nvertices v\narrow x : v -> v\nrelation x*x\n")
    assert [sorted(T.table[i][j].items()) for i in range(2) for j in range(2)] == \
        [sorted(dual.table[i][j].items()) for i in range(2) for j in range(2)]


def test_dual_action_on_dual_numbers():
    # in T(k[x]/(x^2)): (0, x*) . (x, 0) = (0, e*) and (x, 0) . (0, x*) = (0, e*)
    A = build("field Q\nvertices v\narrow x : v -> v\nrelation x*x\n")
    tri = trivial_extension(A)
    T = tri.T
    lab = T.basis_labels
    x = {lab.index("x"): 1}
    xstar = {lab.index("x*"): 1}
    estar = {lab.index("e_v*"): T.field.one()}
    assert T.multiply(xstar, x) == estar
    assert T.multiply(x, xstar) == estar


def test_extension_dimensions(algebras):
    for name, A in algebras.items():
        T = trivial_extension(A).T
        assert T.dim == 2 * A.dim, name


def test_new_arrows_examples(algebras, extensions):
    k_ext = extensions["semisimple_k"]
    assert [k_ext.T.peirce[n] for n in k_ext.new_arrows] == [(0, 0)]

    a2_ext = extensions["path_a2"]
    assert len(a2_ext.new_arrows) == 1
    na = a2_ext.new_arrows[0]
    assert arrows_of(a2_ext.T, [na]) == [Arrow("a*", "2", "1", 1)]

    nak = extensions["nakayama_cycle_2"]
    pairs = {(a.source, a.target) for a in arrows_of(nak.T, nak.new_arrows)}
    assert pairs == {("1", "2"), ("2", "1")}


def test_new_arrows_match_the_block_scan_reference(algebras, extensions):
    # the new arrows are read off the pivots of the bimodule socle; the
    # former construction scanned every Peirce block for its pivots
    inputs = list(algebras.values()) + [tri.T for tri in extensions.values()]
    inputs += [trivial_extension(extensions[name].T).T
               for name in ("dual_numbers", "path_a2")]
    rng, fields = random.Random(20151109), ["field Q", "field F 3", "field F 5"]
    seeded = 0
    for _ in range(10 * 24):
        if seeded == 24:
            break
        pres = random_presentation(rng, rng.random() < 0.5, fields[seeded % 3],
                                   bound=rng.choice([None, None, 3]))
        try:
            inputs.append(build_algebra(pres, max_weight=8))
        except (AlgebraBuildError, PathBudgetExceeded):
            continue
        seeded += 1
    if seeded < 24:
        pytest.fail(f"{10 * 24} seeded presentations gave {seeded} that build, not 24")
    several = 0
    for A in inputs:
        tri = trivial_extension(A)
        got = tri.new_arrows
        assert got == new_arrows_by_block_scan(A), A
        several += A.num_vertices > 1 and len({tri.T.peirce[g] for g in got}) > 1
    # multi-vertex inputs whose new arrows lie in several blocks occur, so
    # the order of the blocks is tested
    assert several >= 10, several


def test_new_arrows_reference_fails_when_every_build_raises(algebras, extensions,
                                                           monkeypatch):
    # a fault that refuses every seeded presentation ends the search with a
    # failure, after the bounded number of attempts, instead of a hang
    tried = 0

    def refuse(pres, **kw):
        nonlocal tried
        tried += 1
        raise AlgebraBuildError("refused")

    monkeypatch.setattr(sys.modules[__name__], "build_algebra", refuse)
    with pytest.raises(pytest.fail.Exception, match="240 seeded presentations gave 0 that"):
        test_new_arrows_match_the_block_scan_reference(algebras, extensions)
    assert tried == 240


def test_new_arrow_images_form_socle_dual_basis(extensions):
    # xi(x_beta), the functional dual to the basis path of beta restricted
    # to the bimodule socle, must be linearly independent of the right
    # cardinality: the chosen representatives are dual functionals of
    # echelon pivots, so restriction to the socle gives a unit triangular
    # family
    for name, tri in extensions.items():
        soc = socles(tri.base).bimodule.rows
        assert len(tri.new_arrows) == len(soc), name
        if soc:
            cols = [[row.get(tri.dual_index(na), 0) for row in soc]
                    for na in tri.new_arrows]
            assert Echelon(tri.T.field, len(soc), cols).rank == len(soc), name


def test_extended_quiver_examples(extensions):
    q = extended_quiver(extensions["semisimple_k"])
    assert len(q.vertices) == 1 and len(q.arrows) == 1

    q = extended_quiver(extensions["dual_numbers"])
    assert len(q.arrows) == 2  # one old loop, one new loop

    q = extended_quiver(extensions["path_a2"])
    assert {(a.name, a.source, a.target) for a in q.arrows} == \
        {("a", "1", "2"), ("a*", "2", "1")}


def test_graded_extension_degrees(algebras):
    k = algebras["semisimple_k"]
    tri = trivial_extension(k)
    assert tri.T.degrees == [0, 1]

    a2 = algebras["path_a2"]
    tri = trivial_extension(a2)
    by_label = dict(zip(tri.T.basis_labels, tri.T.degrees))
    assert by_label == {"e_1": 0, "e_2": 0, "a": 1, "e_1*": 2, "e_2*": 2, "a*": 1}
    assert tri.T.top_degree == 2

    five = algebras["five_vertex_weighted"]
    tri = trivial_extension(five)
    assert tri.T.top_degree == 7  # s + 1


def test_degree_zero_and_top_components_have_vertex_dimension(extensions):
    for name, tri in extensions.items():
        T = tri.T
        if T.degrees is None:
            continue
        r = T.num_vertices
        top = T.top_degree
        assert sum(1 for d in T.degrees if d == 0) == r, name
        assert sum(1 for d in T.degrees if d == top) == r, name


def test_relations_for_ground_field():
    tri = trivial_extension(build("field Q\nvertices v\n"))
    rels = relations_up_to(tri, 2)
    assert [r.label() for r in rels.generators] == ["e_v**e_v*"]
    assert rels.complete and rels.quotient_dim == 2


def test_relations_for_two_ground_fields():
    tri = trivial_extension(build("field Q\nvertices u v\n"))
    rels = relations_up_to(tri, 2)
    labels = {r.label() for r in rels.generators}
    assert labels == {"e_u**e_u*", "e_v**e_v*"}
    assert rels.complete and rels.quotient_dim == 4


def test_relations_cap_validation(extensions):
    with pytest.raises(ValueError):
        relations_up_to(extensions["semisimple_k"], 1)


def test_new_arrow_products_lie_in_generated_ideal(extensions):
    # beta_2 beta_1 evaluates to zero, hence lies in the kernel the
    # generators span at length 2
    for name, tri in extensions.items():
        rels = relations_up_to(tri)
        T = tri.T
        news = tri.new_arrows
        for b2 in news:
            for b1 in news:
                if T.peirce[b1][1] != T.peirce[b2][0]:
                    continue
                x2, x1 = (T.basis_element(b) for b in (b2, b1))
                assert T.multiply(x2, x1) == {}, name


def test_relations_complete_on_length_homogeneous_corpus(extensions):
    for name, tri in extensions.items():
        if name == "five_vertex_weighted":
            continue  # relations of A mix path lengths; see below
        rels = relations_up_to(tri)
        assert rels.complete, name
        assert rels.quotient_dim == tri.T.dim, name
        for g in rels.generators:
            vec = None
            for c, p in g.terms:
                term = phi(tri, p)
                scaled = {k: tri.T.field.mul(c, v) for k, v in term.items()}
                if vec is None:
                    vec = scaled
                else:
                    for k, v in scaled.items():
                        w = tri.T.field.add(vec.get(k, tri.T.field.zero()), v)
                        if w:
                            vec[k] = w
                        else:
                            vec.pop(k, None)
            assert not vec, name  # every generator evaluates to zero


def test_relations_incomplete_for_length_inhomogeneous_base(extensions):
    # the commutativity relation of the five-vertex algebra identifies
    # paths of different lengths, which a length-sliced kernel search
    # cannot see; the completeness flag must report this honestly
    rels = relations_up_to(extensions["five_vertex_weighted"], 4)
    assert not rels.complete
    assert rels.quotient_dim is None or rels.quotient_dim > 26


def test_relations_give_up_at_path_budget():
    # cap 2 sits below the Loewy length, so no slice dies before the path
    # layers outgrow the budget; the quotient dimension stays open
    tri = trivial_extension(build(MORE_PRESENTATIONS["nakayama_cubed_f5"]))
    rels = relations_up_to(tri, 2)
    assert rels.quotient_dim is None and not rels.complete
    assert [g.label() for g in rels.generators] == [
        "b*a**b*a*", "a*b**a + 4*a*b*a*", "b*a**b + 4*b*a*b*", "a*b**a*b*"]


def relations_by_enumeration(tri, cap=None):
    """Reference: the ideal slice at each length spanned by every product
    p * g * q of a path p, a generator g found so far and a path q, and the
    kernels of each slice from the arrow-by-arrow `reference.phi`."""
    ll = loewy_length(tri.T)
    cap = ll if cap is None else cap
    qext = extended_quiver(tri)
    f = tri.T.field
    by_length = {0: [Path.stationary(v) for v in qext.vertices]}
    gens, quotient_dims = [], [len(by_length[0])]
    for length in range(1, max(cap, 3 * ll + 3) + 1):
        layer = [Path(a.source, p.end, (a,) + p.arrows)
                 for a in qext.arrows for p in by_length[length - 1]
                 if p.start == a.target]
        by_length[length] = layer
        if not layer:
            return gens, sum(quotient_dims)
        if len(layer) > 20_000:
            return gens, None
        index = {p.label(): k for k, p in enumerate(layer)}
        ideal = Echelon(f, len(layer))
        for g in gens:
            glen = g.terms[0][1].length
            for lq in range(length - glen + 1):
                for q in by_length[lq]:
                    for p in by_length[length - glen - lq]:
                        if q.end != g.start or p.start != g.end:
                            continue
                        vec = {}
                        for c, t in g.terms:
                            k = index[compose(p, compose(t, q)).label()]
                            vec[k] = f.add(vec.get(k, f.zero()), c)
                        ideal.add(vec)
        if 2 <= length <= cap:
            for vec in slice_kernel_of_paths(f, layer, [phi(tri, p) for p in layer]):
                if ideal.add(vec):
                    gens.append(RelationExpr(tuple(
                        (vec[k], layer[k]) for k in sorted(vec))))
        quotient_dims.append(len(layer) - ideal.rank)
        if quotient_dims[-1] == 0:
            return gens, sum(quotient_dims)
    return gens, None


def assert_relations_match_enumeration(tri, cap, name):
    rels = relations_up_to(tri, cap)
    gens, quotient_dim = relations_by_enumeration(tri, cap)
    assert [g.label() for g in rels.generators] == \
        [g.label() for g in gens], (name, cap)
    assert rels.quotient_dim == quotient_dim, (name, cap)
    assert rels.complete == (quotient_dim == tri.T.dim), (name, cap)


def test_relations_match_product_enumeration(extensions):
    for name, tri in extensions.items():
        for cap in (None, 2):
            assert_relations_match_enumeration(tri, cap, name)


# length-3 generators over F_5; a commutator over F_3; and a quiver with
# a loop and one nonzero path d*c, where T(A) has new arrows of two
# degrees and the length-sliced search stays incomplete
MORE_PRESENTATIONS = {
    "nakayama_cubed_f5": "field F 5\nvertices u v\narrow a : u -> v\n"
                         "arrow b : v -> u\nrelation b*a*b\nrelation a*b*a\n",
    "commutative_f3": "field F 3\nvertices v\narrow x : v -> v\n"
                      "arrow y : v -> v\nrelation x*x\nrelation y*y\n"
                      "relation x*y - y*x\n",
    "loop_and_path": "field Q\nvertices u v w\narrow a : u -> v\narrow b : v -> w\n"
                  "arrow c : w -> u\narrow d : u -> w\narrow l : v -> v\n"
                  "relation b*a\nrelation c*b\nrelation a*c\nrelation c*d\n"
                  "relation l*a\nrelation b*l\nrelation l*l\n",
}


@pytest.mark.parametrize("name", sorted(MORE_PRESENTATIONS))
def test_relations_match_product_enumeration_longer(name):
    tri = trivial_extension(build(MORE_PRESENTATIONS[name]))
    for cap in (None, 3, 4):
        assert_relations_match_enumeration(tri, cap, name)


def seeded_extensions(rng, count):
    """`count` seeded T(A) of dimension at most 24, over Q, F_3 and F_5 in
    turn, from at most 10 presentations per extension (about five times
    what the seeds here use); fails when they do not give `count`."""
    fields, out = ["field Q", "field F 3", "field F 5"], []
    for _ in range(10 * count):
        if len(out) == count:
            return out
        pres = random_presentation(rng, rng.random() < 0.5, fields[len(out) % 3],
                                   bound=rng.choice([None, None, 3]))
        try:
            tri = trivial_extension(build_algebra(pres, max_weight=8))
        except (AlgebraBuildError, PathBudgetExceeded):
            continue
        if tri.T.dim <= 24:
            out.append(tri)
    if len(out) < count:
        pytest.fail(f"{10 * count} seeded presentations gave {len(out)} T(A) of "
                    f"dimension <= 24, not {count}")
    return out


def test_seeded_extensions_fail_when_every_build_raises(monkeypatch):
    # a fault that refuses every T(A) ends the search with a failure,
    # after the bounded number of presentations, instead of a hang
    tried = 0

    def refuse(A):
        nonlocal tried
        tried += 1
        raise AlgebraBuildError("refused")

    monkeypatch.setattr(sys.modules[__name__], "trivial_extension", refuse)
    with pytest.raises(pytest.fail.Exception, match="30 seeded presentations gave 0 T"):
        seeded_extensions(random.Random(1607), 3)
    assert 0 < tried <= 30


def test_extension_check_agrees_with_the_generic_oracles(extensions):
    # T(A) is checked against A's table instead of by the associativity
    # proof; on every corpus T(A) and 24 seeded T(A) over Q, F_3 and F_5
    # the generic validate, its associativity proof and the all-triples
    # reference accept it too
    tris = list(extensions.values()) + seeded_extensions(random.Random(1607), 24)
    assert {tri.T.field.characteristic for tri in tris} == {0, 3, 5}
    for tri in tris:
        T = copy.copy(tri.T)  # without the structure T(A) derived
        validate_extension(tri.base, T)
        T.validate()
        assert T.check_associativity() and associative_on_all_triples(T), T


def test_building_extension_runs_no_generic_validation(presentations, monkeypatch):
    # build_algebra validates A once; trivial_extension neither validates
    # T(A) generically nor proves its associativity
    calls = Counter()
    for name in ("validate", "check_associativity"):
        def spy(self, _real=getattr(FDAlgebra, name), _name=name):
            calls[_name] += 1
            return _real(self)
        monkeypatch.setattr(FDAlgebra, name, spy)
    for name, pres in presentations.items():
        calls.clear()
        A = build_algebra(pres)
        assert calls == {"validate": 1, "check_associativity": 1}, name
        trivial_extension(trivial_extension(A).T)
        assert calls == {"validate": 1, "check_associativity": 1}, name


def test_slice_kernel_matches_per_block_kernels(extensions, monkeypatch):
    # one elimination over the whole layer, read in block order, gives the
    # former per-block kernels on every length 2..loewy_length(T), for the
    # corpus and for seeded T(A) over Q, F_3 and F_5.  Layers whose block
    # order is not the pivot order occur, so reading the rows in pivot
    # order fails here.
    layers = reordered = 0

    def spy(field, layer, values):
        nonlocal layers, reordered
        got = _slice_kernel(field, layer, values)
        assert got == slice_kernel_by_blocks(field, layer, values), layer
        layers += 1
        reordered += [min(v) for v in got] != sorted(min(v) for v in got)
        return got

    monkeypatch.setattr(trivial_extension_module, "_slice_kernel", spy)
    tris = list(extensions.values()) + seeded_extensions(random.Random(1507), 24)
    for tri in tris:
        calls = layers
        relations_up_to(tri)
        assert layers - calls == loewy_length(tri.T) - 1, tri.T
    assert reordered >= 20, reordered


def test_relations_stop_adding_at_the_kernel_rank(extensions, monkeypatch):
    # once the ideal slice has the kernel's rank the two are equal, and
    # relations_up_to adds no further kernel vector; the generators, the
    # quotient dimension and the completeness flag stay those of the
    # former loop, which added every kernel vector
    adds = 0
    real = Echelon.add

    def spy(self, vec):
        nonlocal adds
        adds += 1
        return real(self, vec)

    monkeypatch.setattr(Echelon, "add", spy)
    tris = list(extensions.values()) + seeded_extensions(random.Random(1507), 24)
    skipped = []
    for tri in tris:
        start = adds
        want = relations_adding_every_kernel_vector(tri)  # derives loewy_length too
        mid = adds
        assert relations_up_to(tri) == want, tri.T
        skipped.append((mid - start) - (adds - mid))
    assert min(skipped) >= 0 and sum(skipped) >= 10_000, skipped


def test_path_values_match_arrow_by_arrow_evaluation(extensions, monkeypatch):
    # relations_up_to evaluates each path p*a as the value of p, kept from
    # the layer below, times a; every length 2..loewy_length(T) it hands
    # to the kernel step must agree with the arrow-by-arrow reference.phi
    # (the values of lengths 0 and 1 enter every length-2 product)
    seen = []

    def spy(field, layer, values):
        seen.append((layer, values))
        return _slice_kernel(field, layer, values)

    monkeypatch.setattr(trivial_extension_module, "_slice_kernel", spy)
    tris = list(extensions.values()) + [
        trivial_extension(extensions[name].T) for name in ("dual_numbers", "path_a2")]
    tris += seeded_extensions(random.Random(20151027), 24)
    products = 0
    for tri in tris:
        seen.clear()
        relations_up_to(tri)
        assert len(seen) == loewy_length(tri.T) - 1, tri.T
        qext = extended_quiver(tri)
        for (starts, _ends, words), values in seen:
            paths = [qext.path(s, word) for s, word in zip(starts, words)]
            assert values == [phi(tri, p) for p in paths], tri.T
            products += sum(len(v) > 1 or any(c != 1 for c in v.values())
                            for v in values)
    assert products  # values with several terms or a coefficient != 1 occur


def test_check_new_products_vanish(extensions):
    for name, tri in extensions.items():
        assert check_new_products_vanish(tri), name


def test_symmetric_form_properties(extensions):
    from trivext.corpus import symmetric_form_checks
    for name, tri in extensions.items():
        checks = symmetric_form_checks(tri)
        assert checks == {"symmetric": True, "associative": True,
                          "nondegenerate": True}, name


def test_radical_of_extension_decomposes(extensions):
    from trivext.corpus import radical_decomposition_checks
    for name, tri in extensions.items():
        checks = radical_decomposition_checks(tri)
        assert all(checks.values()), (name, checks)


def test_arrow_counts_match_radical_quotient(extensions):
    from trivext.corpus import quiver_match_checks
    for name, tri in extensions.items():
        checks = quiver_match_checks(tri)
        assert all(checks.values()), (name, checks)


def test_nakayama_incoming_new_arrows(algebras, extensions):
    for name in ("semisimple_k", "dual_numbers", "semisimple_k2",
                 "nakayama_cycle_2", "nakayama_cycle_3"):
        A = algebras[name]
        tri = extensions[name]
        cert = selfinjectivity(A)
        assert isinstance(cert, SelfinjectivityCertificate), name
        incoming = {}
        for src, tgt in (tri.T.peirce[k] for k in tri.new_arrows):
            incoming.setdefault(tgt, set()).add(src)
        for i in range(A.num_vertices):
            assert i in incoming, (name, i)
            assert cert.permutation[i] in incoming[i], (name, i)


def test_weak_socle_gives_incoming_new_arrows(algebras, extensions):
    for name, A in algebras.items():
        if not left_socle_in_bimodule_socle(A):
            continue
        tri = extensions[name]
        targets = {tri.T.peirce[k][1] for k in tri.new_arrows}
        assert targets == set(range(A.num_vertices)), name


def test_dual_part_is_square_zero_ideal(extensions):
    for name, tri in extensions.items():
        T = tri.T
        d = tri.base.dim
        for i in range(d, 2 * d):
            for j in range(d, 2 * d):
                assert T.table[i][j] == {}, name


def test_peirce_of_duals_transposed(extensions):
    for name, tri in extensions.items():
        T, d = tri.T, tri.base.dim
        for k in range(d):
            src, tgt = T.peirce[k]
            assert T.peirce[d + k] == (tgt, src), name


def test_dual_blocks_match_the_scan_reference(algebras, extensions):
    rng = random.Random(20150807)
    inputs = list(algebras.values()) + [tri.T for tri in extensions.values()]
    for _ in range(60):
        pres = random_presentation(rng, rng.random() < 0.5,
                                   rng.choice(["field Q", "field F 3", "field F 5"]),
                                   bound=rng.choice([None, None, 3, 4]))
        try:
            inputs.append(build_algebra(pres, max_weight=8))
        except AlgebraBuildError:
            pass
    assert len(inputs) >= 16 + 25, len(inputs)
    multi_key = 0
    for A in inputs:
        got, want = trivial_extension(A).T.table, extension_table_by_scan(A)
        # items, not dicts: the key order of every entry must agree too
        assert [[list(x.items()) for x in row] for row in got] == \
            [[list(x.items()) for x in row] for row in want], A
        multi_key += sum(len(x) > 1 for row in want for x in row[A.dim:])
        multi_key += sum(len(x) > 1 for row in want[A.dim:] for x in row)
    assert multi_key  # dual-block entries with several keys occur


RATIONAL_PRESENTATIONS = (
    "field Q\nvertices v\narrow x : v -> v\narrow y : v -> v\n"
    "relation x*x\nrelation y*y\nrelation x*y - 2/3*y*x\n",
    "field Q\nvertices a b c d\narrow x : a -> b\narrow y : b -> d\narrow z : a -> c\n"
    "arrow w : c -> d\nrelation 3/2*y*x - 4*w*z\n",
)


def test_rational_scalars_are_stored_as_ints_when_integral(extensions):
    # over Q every scalar the package stores is an int or a non-integral
    # Fraction: the tables of A and T(A), the rows of the radical chain,
    # the socles and the trace-form radical (kernels of row_reduce), and
    # the coefficients of the relations of T(A)
    tris = [tri for tri in extensions.values() if tri.T.field == QQ]
    tris += [tri for tri in seeded_extensions(random.Random(1806), 36)
             if tri.T.field == QQ]
    tris += [trivial_extension(build(text)) for text in RATIONAL_PRESENTATIONS]
    fractional = 0
    for tri in tris:
        values = [c for gen in relations_up_to(tri).generators for c, _ in gen.terms]
        for X in (tri.base, tri.T):
            soc = socles(X)
            spaces = (radical_chain(X) + soc.left + soc.right
                      + [soc.bimodule, trace_form_radical(X)])
            values += [c for row in X.table for prod in row for c in prod.values()]
            values += [c for ech in spaces for row in ech.rows for c in row.values()]
        assert all(is_q_scalar(c) for c in values), tri.T
        fractional += any(type(c) is Fraction for c in values)
    assert len(tris) >= 20 and fractional >= 4, (len(tris), fractional)
