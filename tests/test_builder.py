"""The weight-slice builder against a reference that enumerates every
product p * rho * q of a relation rho with paths p and q.

The homogeneous builder steps each ideal slice from the echelon rows of
the earlier slices (`quotient_slices`, `ideal_slice`), and the bounded
builder closes its ideal on one echelon, both over path layers grown by
`path_layer`; the reference below is the former construction and spans
the same subspaces, so the coordinate paths and the reduced echelon rows
must agree.  The reference also computes its own basis, degrees and
table, reducing each product of basis paths modulo its own slices with
`Echelon.reduce`, so a fault in the way `build_algebra` reads the
builders' rows shows up as a mismatch too.
"""

import random
from types import SimpleNamespace

import pytest

from trivext import algebra
from trivext.algebra import AdmissibilityError, Echelon, build_algebra
from trivext.dsl import parse_presentation
from trivext.quiver import Arrow, Path, Quiver, compose, word_labels

from reference import bounded_by_pieces, paths_up_to_length

# -- the reference construction ---------------------------------------------


def paths_by_weight(quiver, max_weight):
    groups = {0: [Path.stationary(v) for v in quiver.vertices]}
    for w in range(1, max_weight + 1):
        groups[w] = []
    for w in range(1, max_weight + 1):
        for a in quiver.arrows:
            da = a.degree if a.degree is not None else 1
            if da > w:
                continue
            for p in groups[w - da]:
                if p.start == a.target:
                    groups[w].append(Path(a.source, p.end, (a,) + p.arrows))
    return groups


def relation_slice_vectors(field, relations, groups, w, path_index):
    vectors = []
    for rel in relations:
        wr = next(iter(rel.weights()))
        for wq in sorted(groups):
            wp = w - wr - wq
            if wp < 0 or wp not in groups:
                continue
            for q in groups[wq]:
                if q.end != rel.start:
                    continue
                for p in groups[wp]:
                    if p.start != rel.end:
                        continue
                    vec = {}
                    for c, t in rel.terms:
                        k = path_index[compose(p, compose(t, q)).label()]
                        vec[k] = field.add(vec.get(k, field.zero()), c)
                    if any(vec.values()):
                        vectors.append(vec)
    return vectors


def reference_homogeneous(pres, max_weight):
    q, f = pres.quiver, pres.field
    window = max((a.degree or 1) for a in q.arrows) if q.arrows else 1
    groups = {0: [Path.stationary(v) for v in q.vertices]}
    stationary = groups[0]
    slices = {0: SimpleNamespace(
        paths=stationary, index={p.label(): k for k, p in enumerate(stationary)},
        echelon=Echelon(f, len(stationary)),
        basis_positions=list(range(len(stationary))))}
    streak, w = 0, 0
    while streak < window:
        w += 1
        if w > max_weight:
            raise AdmissibilityError("no empty window")
        bucket = []
        for a in q.arrows:
            for p in groups.get(w - (a.degree or 1), ()):
                if p.start == a.target:
                    bucket.append(Path(a.source, p.end, (a,) + p.arrows))
        groups[w] = bucket
        index = {p.label(): k for k, p in enumerate(bucket)}
        ech = Echelon(f, len(bucket))
        for vec in relation_slice_vectors(f, pres.relations, groups, w, index):
            ech.add(vec)
        pivots = set(ech.pivots)
        basis = [k for k in range(len(bucket)) if k not in pivots]
        slices[w] = SimpleNamespace(paths=bucket, index=index, echelon=ech,
                                    basis_positions=basis)
        streak = streak + 1 if not basis else 0
    return slices, w - window + 1


def reference_bounded(pres):
    q, f, N = pres.quiver, pres.field, pres.nilpotency_bound
    if q.is_graded:
        q = Quiver(q.vertices, [Arrow(a.name, a.source, a.target) for a in q.arrows])
    groups = paths_by_weight(q, N)
    order = [p for w in sorted(groups) for p in groups[w]]
    path_index = {p.label(): k for k, p in enumerate(order)}
    ech = Echelon(f, len(order))
    for rel in pres.relations:
        min_len = min(t.length for _, t in rel.terms)
        for qp in order:
            if qp.end != rel.start or qp.length + min_len > N:
                continue
            for pp in order:
                if pp.start != rel.end or qp.length + min_len + pp.length > N:
                    continue
                vec = {}
                for c, t in rel.terms:
                    if qp.length + t.length + pp.length > N:
                        continue
                    k = path_index[compose(pp, compose(t, qp)).label()]
                    vec[k] = f.add(vec.get(k, f.zero()), c)
                if any(vec.values()):
                    ech.add(vec)
    pivots = set(ech.pivots)
    basis = [k for k in range(len(order)) if k not in pivots]
    if any(order[k].length >= N for k in basis):
        raise AdmissibilityError("bound too small")
    return order, path_index, ech, basis


def reference_enumerate_paths(quiver, max_length):
    out = [Path.stationary(v) for v in quiver.vertices]
    layer = list(out)
    for _ in range(max_length):
        layer = [Path(a.source, p.end, (a,) + p.arrows)
                 for a in quiver.arrows for p in layer if p.start == a.target]
        out.extend(layer)
        if not layer:
            break
    return out


def graded(pres):
    """Whether `build_algebra` takes the homogeneous builder."""
    return pres.quiver.is_graded or all(len({p.length for _, p in rel.terms}) == 1
                                        for rel in pres.relations)


def reference_pair(pres, max_weight):
    """The reference construction as (coordinate paths, rows keyed by
    pivot, basis coordinates, degrees, normal form).  The first two are in
    the builders' shape; the normal form maps a path to a dict on the
    coordinates by `Echelon.reduce` on the reference's own echelons."""
    f = pres.field
    if graded(pres):
        slices, cutoff = reference_homogeneous(pres, max_weight)
        order, rows, start = [], {}, {}
        for w in sorted(slices):
            sl, start[w] = slices[w], len(order)
            order.extend(sl.paths)
            rows.update((start[w] + k, {start[w] + j: c for j, c in row.items()})
                        for k, row in zip(sl.echelon.pivots, sl.echelon.rows))
        basis = [start[w] + k for w in sorted(slices) for k in slices[w].basis_positions]
        degrees = [w for w in sorted(slices) for _ in slices[w].basis_positions]

        def normal_form(path):
            w = path.weight()
            if w >= cutoff or w not in slices:
                return {}
            sl = slices[w]
            res = sl.echelon.reduce({sl.index[path.label()]: f.one()})
            return {start[w] + k: res[k] for k in sorted(res)}
    else:
        order, path_index, ech, basis = reference_bounded(pres)
        rows, degrees = dict(zip(ech.pivots, ech.rows)), None

        def normal_form(path):
            if path.length > pres.nilpotency_bound:
                return {}
            res = ech.reduce({path_index[path.label()]: f.one()})
            return {k: res[k] for k in sorted(res)}
    return order, rows, basis, degrees, normal_form


# -- comparison ---------------------------------------------------------------


def reference_outcome(pres, max_weight):
    """The reference's basis labels, degrees, table and bound flag, or the
    type of its build error."""
    try:
        order, _rows, basis, degrees, normal_form = reference_pair(pres, max_weight)
    except AdmissibilityError:
        return AdmissibilityError
    column = {k: i for i, k in enumerate(basis)}
    table = [[{column[k]: c for k, c in normal_form(compose(order[i], order[j])).items()}
              if order[j].end == order[i].start else {} for j in basis] for i in basis]
    return ([order[k].label() for k in basis], degrees, table, degrees is None)


def builder_pair(pres, max_weight):
    """The package builder's (coordinate paths, rows keyed by pivot), with
    the paths built from their start vertices and words, or the type of
    its build error."""
    try:
        starts, words, rows = (algebra._build_homogeneous(pres, max_weight)
                               if graded(pres) else algebra._build_bounded(pres))
    except AdmissibilityError:
        return AdmissibilityError
    return [pres.quiver.path(s, word) for s, word in zip(starts, words)], rows


def outcome(pres, **kw):
    """The built algebra's data, or the type of the build error."""
    try:
        A = build_algebra(pres, **kw)
    except AdmissibilityError:
        return AdmissibilityError
    return (A.basis_labels, A.degrees, A.table, A.bound_conditional)


def assert_matches_reference(pres, max_weight=256):
    got = outcome(pres, max_weight=max_weight)
    assert got == reference_outcome(pres, max_weight)
    pair = builder_pair(pres, max_weight)
    if pair is AdmissibilityError:
        assert got is AdmissibilityError
    else:
        assert pair == reference_pair(pres, max_weight)[:2]
    return got


def test_corpus_matches_reference(presentations):
    for name, pres in presentations.items():
        assert assert_matches_reference(pres) is not AdmissibilityError, name


def random_presentation(rng, degrees, field, bound=None):
    """A random quiver on 1..3 vertices with monomial and commutativity
    relations; arrow degrees in 1..3 when `degrees`, else untagged.  With
    a nilpotency `bound` the two sides of a relation may differ in length."""
    vertices = [f"v{i}" for i in range(rng.randint(1, 3))]
    lines = [field, "vertices " + " ".join(vertices)]
    arrows = []
    for i in range(rng.randint(2, 4)):
        a = (f"a{i}", rng.choice(vertices), rng.choice(vertices))
        arrows.append(a)
        lines.append(f"arrow {a[0]} : {a[1]} -> {a[2]}"
                     + (f" deg {rng.randint(1, 3)}" if degrees else ""))
    quiver = parse_presentation("\n".join(lines) + "\n").quiver
    p = 0 if field == "field Q" else int(field.split()[-1])
    by_ends = {}
    for path in paths_up_to_length(quiver, 3):
        if path.length >= 2:
            # parallel paths of one weight, or of any lengths under a bound
            key = (path.start, path.end, bound or path.weight())
            by_ends.setdefault(key, []).append(path)
    for group in by_ends.values():
        rng.shuffle(group)
        while group:
            first = group.pop()
            roll = rng.random()
            if roll < 0.45:
                lines.append(f"relation {first.label()}")
            elif roll < 0.8 and group:
                c = rng.randint(1, (p or 4) - 1)
                lines.append(f"relation {first.label()} - {c}*{group.pop().label()}")
    if bound is not None:
        lines.append(f"nilpotency_bound {bound}")
    return parse_presentation("\n".join(lines) + "\n")


@pytest.mark.parametrize("degrees", [True, False], ids=["arrow_degrees", "length"])
@pytest.mark.parametrize("field", ["field Q", "field F 3", "field F 5"])
def test_seeded_graded_presentations_match_reference(degrees, field):
    rng = random.Random(f"{degrees}-{field}")
    built = 0
    for _ in range(12):
        pres = random_presentation(rng, degrees, field)
        built += assert_matches_reference(pres, max_weight=8) is not AdmissibilityError
    assert built >= 4


def test_commutative_weighted_square_matches_reference():
    # window 3: the arrow degrees are 1, 2 and 3
    pres = parse_presentation(
        "field F 7\nvertices 1 2 3 4\narrow a : 1 -> 2 deg 1\n"
        "arrow b : 2 -> 4 deg 3\narrow c : 1 -> 3 deg 2\narrow d : 3 -> 4 deg 2\n"
        "relation b*a - 3*d*c\n")
    got = assert_matches_reference(pres)
    assert got[0] == ["e_1", "e_2", "e_3", "e_4", "a", "c", "d", "b", "d*c"]


BOUNDED = [
    "field Q\nvertices v\narrow x : v -> v\nrelation x*x - x*x*x\n",
    "field Q\nvertices v\narrow x : v -> v\narrow y : v -> v\n"
    "relation x*x - y*y*y\nrelation x*y\nrelation y*x\n",
    "field F 5\nvertices u v\narrow a : u -> v\narrow b : v -> u\n"
    "arrow c : u -> v\nrelation b*a - 2*b*a*b*a\nrelation a*b - c*b\n"
    "relation b*c\n",
    "field F 3\nvertices v\narrow x : v -> v\narrow y : v -> v\n"
    "relation x*y - y*x\nrelation x*x - y*y*y\n",
]


@pytest.mark.parametrize("bound", [2, 3, 4, 5])
@pytest.mark.parametrize("k", range(len(BOUNDED)))
def test_bounded_presentations_match_reference(k, bound):
    pres = parse_presentation(BOUNDED[k] + f"nilpotency_bound {bound}\n")
    assert_matches_reference(pres)


def test_seeded_bounded_presentations_match_reference():
    rng = random.Random(29)
    built = 0
    for trial in range(16):
        pres = random_presentation(rng, False, rng.choice(["field Q", "field F 5"]),
                                   bound=rng.randint(2, 5))
        built += assert_matches_reference(pres) is not AdmissibilityError
    assert built >= 2


def test_bounded_closure_matches_piecewise_sum():
    # _build_bounded closes its ideal on one Echelon, pushing only the
    # vectors that enlarged it; the former builder summed the pieces J_l.
    # Both span the least subspace holding the relations and closed under
    # the arrow maps, so the coordinate paths and rows agree, and so does
    # a rejected bound.  (A closure pushed through the right maps only
    # fails here.)
    rng = random.Random(37)
    presentations = [parse_presentation(text + f"nilpotency_bound {bound}\n")
                     for text in BOUNDED for bound in (2, 3, 4, 5)]
    presentations += [random_presentation(rng, False, rng.choice(
        ["field Q", "field F 3", "field F 5"]), bound=rng.randint(2, 5))
        for _ in range(24)]
    built = 0
    for pres in presentations:
        try:
            order, rows = bounded_by_pieces(pres)
        except AdmissibilityError:
            with pytest.raises(AdmissibilityError):
                algebra._build_bounded(pres)
            continue
        starts, words, got_rows = algebra._build_bounded(pres)
        assert word_labels(pres.quiver, starts, words) == [p.label() for p in order]
        assert got_rows == rows
        built += 1
    assert built >= 20, built


def test_too_small_bound_rejected_by_both():
    pres = parse_presentation(BOUNDED[1] + "nilpotency_bound 2\n")
    assert assert_matches_reference(pres) is AdmissibilityError


def test_enumerate_paths_unchanged():
    quivers = [
        Quiver(["v"], []),
        Quiver(["v"], [Arrow("x", "v", "v"), Arrow("y", "v", "v")]),
        Quiver(["1", "2", "3"], [Arrow("a", "1", "2", 2), Arrow("b", "2", "3", 1),
                                 Arrow("c", "3", "1", 3), Arrow("d", "1", "1", 1)]),
        Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")]),
    ]
    for q in quivers:
        for n in range(6):
            assert paths_up_to_length(q, n) == reference_enumerate_paths(q, n), (q, n)
