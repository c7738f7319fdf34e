"""Quiver/path model and the presentation language."""

import pytest

from trivext.dsl import (DSLError, parse_presentation, serialize_presentation)
from trivext.linalg import GF, QQ
from trivext.quiver import (Arrow, CompositionError, Path, Quiver, QuiverError,
                            compose, path_layer,
                            PathBudgetExceeded, PATH_BUDGET)

from reference import path_layer_of_paths, paths_up_to_length

FIVE_VERTEX = """
field Q
vertices 1 2 3 4 5
arrow alpha : 1 -> 2 deg 3
arrow beta : 2 -> 3 deg 3
arrow gamma : 1 -> 4 deg 2
arrow delta : 4 -> 5 deg 2
arrow eps : 5 -> 3 deg 2
relation eps*delta*gamma - beta*alpha
"""


def test_parse_single_vertex_no_arrows():
    p = parse_presentation("field Q\nvertices v\n")
    assert p.quiver.vertices == ("v",)
    assert p.quiver.arrows == ()
    assert p.relations == ()
    assert p.field == QQ


def test_parse_five_vertex_example():
    p = parse_presentation(FIVE_VERTEX)
    assert len(p.quiver.vertices) == 5
    assert len(p.quiver.arrows) == 5
    assert p.quiver.arrow("alpha").degree == 3
    assert p.quiver.arrow("eps").degree == 2
    assert len(p.relations) == 1
    rel = p.relations[0]
    assert len(rel.terms) == 2
    assert {p_.label() for _, p_ in rel.terms} == {"eps*delta*gamma", "beta*alpha"}
    assert rel.start == "1" and rel.end == "3"
    assert sorted(c for c, _ in rel.terms) == [QQ.coerce(-1), QQ.coerce(1)]


def test_admissibility_error_for_short_term():
    # parallel terms of length 1 violate admissibility (ideal inside the
    # square of the arrow ideal)
    with pytest.raises(DSLError) as err:
        parse_presentation("field Q\nvertices 1 2\narrow b : 1 -> 2\n"
                           "arrow a : 1 -> 2\nrelation b - a\n")
    assert "length" in str(err.value)


def test_parse_errors_carry_positions():
    with pytest.raises(DSLError) as err:
        parse_presentation("field Q\nvertices v\narrow x : v -> w\n")
    assert err.value.line == 3
    with pytest.raises(DSLError) as err:
        parse_presentation("field Q\nvertices v\narrow x : v -> v\nrelation x*y\n")
    assert err.value.line == 4
    assert "unknown arrow" in str(err.value)
    with pytest.raises(DSLError):
        parse_presentation("field Q\nvertices v\nfrobnicate 3\n")


@pytest.mark.parametrize("second", ["6", "2"])
def test_second_declaration_is_a_parse_error(second):
    # a later line would otherwise override the first, and a verdict
    # conditional on the bound would rest on a bound the file never meant
    base = "field Q\nvertices v\narrow x : v -> v\nrelation x*x - x*x*x\n"
    with pytest.raises(DSLError) as err:
        parse_presentation(base + f"nilpotency_bound 4\nnilpotency_bound {second}\n")
    assert str(err.value) == "nilpotency_bound declared twice (line 6)"
    with pytest.raises(DSLError) as err:
        parse_presentation("field Q\n" + base)
    assert str(err.value) == "field declared twice (line 2)"


def test_zero_arrow_degree_is_a_parse_error():
    with pytest.raises(DSLError) as err:
        parse_presentation("field Q\nvertices v\narrow x : v -> v deg 0\n")
    assert err.value.line == 3
    assert str(err.value) == "arrow degrees must be >= 1 (line 3)"


def test_non_parallel_terms_rejected():
    text = ("field Q\nvertices 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\n"
            "arrow c : 1 -> 2\narrow d : 2 -> 1\n"
            "relation b*a + d*c\n")
    with pytest.raises(DSLError):
        parse_presentation(text)


def test_partial_degrees_rejected():
    text = ("field Q\nvertices v\narrow x : v -> v deg 2\narrow y : v -> v\n")
    with pytest.raises(DSLError):
        parse_presentation(text)


def test_duplicate_paths_rejected():
    text = ("field Q\nvertices v\narrow x : v -> v\nrelation x*x + x*x\n")
    with pytest.raises(DSLError):
        parse_presentation(text)


def test_field_declarations():
    p = parse_presentation("field F 5\nvertices v\narrow x : v -> v\n"
                           "relation 1/2*x*x\n")
    assert p.field == GF(5)
    assert p.relations[0].terms[0][0] == 3  # 1/2 = 3 mod 5
    with pytest.raises(DSLError):
        parse_presentation("field F 6\nvertices v\n")
    with pytest.raises(DSLError):
        # coefficient 5 vanishes mod 5
        parse_presentation("field F 5\nvertices v\narrow x : v -> v\n"
                           "relation 5*x*x\n")


def test_rational_coefficients():
    p = parse_presentation("field Q\nvertices v\narrow x : v -> v\n"
                           "relation x*x - 2/3*x*x*x\n")
    coeffs = sorted(c for c, _ in p.relations[0].terms)
    assert coeffs == [QQ.coerce((-2, 3)), QQ.coerce(1)]


def test_fp_denominator_divisible_by_p_is_a_parse_error():
    # 1/5 and 2/10 have no value in F_5; 5/10 = 1/2 does, and stays 3
    for coeff in ("1/5", "2/10"):
        with pytest.raises(DSLError) as err:
            parse_presentation("field F 5\nvertices v\narrow x : v -> v\n"
                               f"relation {coeff}*x*x\n")
        assert "not invertible in F 5" in str(err.value)
        assert (err.value.line, err.value.col) == (4, 12)  # the denominator
    p = parse_presentation("field F 5\nvertices v\narrow x : v -> v\n"
                           "relation 5/10*x*x\n")
    assert [c for c, _ in p.relations[0].terms] == [3]


@pytest.mark.parametrize("raw, bad", [
    ("relation x*x + ?", "?"),                 # unexpected character
    ("relation x*x + x*  ?", "?"),
    ("  relation   x*y", "y"),                 # unknown arrow
    ("\t relation x*x - 2*y*x", "y"),
    (" relation 1/5*x*x", "5"),                # bad denominator
    ("  relation  3/1 *x*x + 2/0*x*x", "0"),
    ("   relation x*+x", "+"),                 # expected an arrow
    ("  relation x*x + 10*x*x", "1"),          # coefficient vanishes in F_5
    ("relation   x*x  + x*x*7  # note", "7"),
])
def test_relation_errors_point_into_the_raw_line(raw, bad):
    # columns count from the start of the line as written, leading
    # whitespace included, not from the start of the expression
    with pytest.raises(DSLError) as err:
        parse_presentation(f"field F 5\nvertices v\narrow x : v -> v\n{raw}\n")
    assert err.value.line == 4
    assert raw[err.value.col - 1] == bad, (raw, err.value.col)


@pytest.mark.parametrize("raw, message", [
    ("relation x", "relation term x has length 1 < 2 (relations must lie in "
                   "the square of the arrow ideal)"),
    ("relation x*x - y*x", "relation terms are not parallel paths"),
    ("relation x*x - 2*x*x", "duplicate path among relation terms"),
])
def test_relation_shape_errors_name_their_line(raw, message):
    # RelationExpr raises these without a position; the parser names the
    # relation's line and the column where its expression starts
    with pytest.raises(DSLError) as err:
        parse_presentation("field Q\nvertices v w\narrow x : v -> v\n"
                           f"arrow y : v -> w\n  {raw}\n")
    assert (err.value.line, err.value.col) == (5, 12)
    assert str(err.value) == f"{message} (line 5, column 12)"


@pytest.mark.parametrize("raw, message", [
    ("relation x*", "expected an arrow name"),
    ("relation x*x +", "expected a term"),
    ("relation x*x - 2", "expected '*' after coefficient"),
    ("relation 1/", "expected denominator after '/'"),
])
def test_errors_at_the_end_of_a_relation_point_past_it(raw, message):
    # a missing token is reported at the column just after the expression
    with pytest.raises(DSLError) as err:
        parse_presentation("field Q\nvertices v\narrow x : v -> v\n\n"
                           f"  {raw}   # comment\n")
    assert (err.value.line, err.value.col) == (5, len(raw) + 3)
    assert str(err.value) == f"{message} (line 5, column {len(raw) + 3})"


@pytest.mark.parametrize("raw, message, col", [
    ("relation   y*x", "x ends at w, y starts at v", 12),
    ("relation   z*y*x", "x ends at w, y starts at v", 14),
    # of two breaks, the one met first in application order is named
    ("relation   y*y*x", "x ends at w, y starts at v", 14),
    ("relation   z*x - z*y*x", "x ends at w, y starts at v", 20),
])
def test_a_path_that_does_not_compose_names_the_factor(raw, message, col):
    # the column of the written factor that cannot follow its right neighbour
    with pytest.raises(DSLError) as err:
        parse_presentation("field Q\nvertices v w\narrow x : v -> w\narrow y : v -> w\n"
                           f"{raw}\narrow z : w -> v\n")
    assert str(err.value) == f"path is not composable: {message} (line 5, column {col})"


def test_round_trip_on_corpus(presentations):
    for name, p in presentations.items():
        text = serialize_presentation(p)
        assert parse_presentation(text) == p, name


def test_round_trip_with_bound_and_fp():
    text = ("field F 7\nvertices u v\narrow a : u -> v\narrow b : v -> u\n"
            "relation b*a - 2*b*a*b*a\nnilpotency_bound 6\n")
    p = parse_presentation(text)
    assert p.nilpotency_bound == 6
    assert parse_presentation(serialize_presentation(p)) == p


# -- paths -------------------------------------------------------------------


def _five_quiver():
    return parse_presentation(FIVE_VERTEX).quiver


def test_compose_examples():
    q = _five_quiver()
    alpha, beta = q.arrow("alpha"), q.arrow("beta")
    a = Path(alpha.source, alpha.target, (alpha,))
    b = Path(beta.source, beta.target, (beta,))
    ba = compose(b, a)
    assert (ba.start, ba.end, ba.length) == ("1", "3", 2)
    assert ba.label() == "beta*alpha"
    e1 = Path.stationary("1")
    assert compose(e1, e1) == e1
    assert compose(ba, e1) == ba
    assert compose(Path.stationary("3"), ba) == ba
    with pytest.raises(CompositionError):
        compose(a, b)  # beta ends at 3, alpha starts at 1


def test_compose_associative_when_defined():
    q = _five_quiver()
    g, d, e = (Path(a.source, a.target, (a,))
               for a in map(q.arrow, ("gamma", "delta", "eps")))
    assert compose(e, compose(d, g)) == compose(compose(e, d), g)


def test_enumerate_paths_examples():
    one = Quiver(["v"], [])
    assert [p.label() for p in paths_up_to_length(one, 3)] == ["e_v"]

    loop = Quiver(["v"], [Arrow("x", "v", "v")])
    assert [p.label() for p in paths_up_to_length(loop, 2)] == ["e_v", "x", "x*x"]

    five = _five_quiver()
    paths = paths_up_to_length(five, 3)
    assert len(paths) == 14
    labels = {p.label() for p in paths}
    assert {"beta*alpha", "delta*gamma", "eps*delta", "eps*delta*gamma"} <= labels


def test_enumerate_paths_no_duplicates_closed_under_subpaths():
    q = _five_quiver()
    paths = paths_up_to_length(q, 3)
    labels = [p.label() for p in paths]
    assert len(labels) == len(set(labels))
    label_set = set(labels)
    for p in paths:
        for i in range(p.length):
            for j in range(i, p.length + 1):
                arrows = p.arrows[i:j]
                if arrows:
                    sub = Path(arrows[0].source, arrows[-1].target, arrows)
                else:
                    continue
                assert sub.label() in label_set


def test_enumerate_paths_sorted_by_length_then_lex():
    q = Quiver(["v"], [Arrow("x", "v", "v"), Arrow("y", "v", "v")])
    labels = [p.label() for p in paths_up_to_length(q, 2)]
    # lexicographic in application order: (), (x), (y), (x,x), (x,y), (y,x),
    # (y,y); labels read function-order, i.e. reversed
    assert labels == ["e_v", "x", "y", "x*x", "y*x", "x*y", "y*y"]


def test_quiver_validation():
    with pytest.raises(QuiverError):
        Quiver(["v", "v"], [])
    with pytest.raises(QuiverError):
        Quiver(["v"], [Arrow("x", "v", "w")])
    with pytest.raises(QuiverError):
        Quiver(["v"], [Arrow("x", "v", "v", 2), Arrow("y", "v", "v")])
    with pytest.raises(QuiverError):
        Path("v", "w", ())
    # labels must tell paths apart: e_v names the stationary path at v, and
    # '*' joins the arrows of a label
    with pytest.raises(QuiverError, match="label of the stationary path"):
        Quiver(["v"], [Arrow("e_v", "v", "v")])
    with pytest.raises(QuiverError, match="contains '\\*'"):
        Quiver(["a*b"], [])
    # ... and an arrow may not be named by the label of a composable path
    # of at least two other arrows, split at '*' on arrow names, not characters
    a, b, c = Arrow("a", "u", "v"), Arrow("b", "v", "w"), Arrow("c", "w", "u")
    with pytest.raises(QuiverError, match="'b\\*a' is the label of the path a then b") as exc:
        Quiver(["u", "v", "w"], [a, b, Arrow("b*a", "u", "w")])
    assert exc.value.arrow == "b*a"
    with pytest.raises(QuiverError, match="path a then b then c of"):
        Quiver(["u", "v", "w"], [a, b, c, Arrow("c*b*a", "u", "u")])
    with pytest.raises(QuiverError, match="path a then c\\*b of"):
        Quiver(["u", "v", "w"], [a, Arrow("c*b", "v", "u"), Arrow("c*b*a", "u", "u")])
    # T(A)'s arrows x* and e_v* contain '*', and a label of arrows that do not
    # compose names no path
    Quiver(["u", "v"], [Arrow("x", "u", "v"), Arrow("x*", "v", "u"),
                        Arrow("e_u*", "u", "u")])
    Quiver(["u", "v", "w"], [Arrow("a", "u", "v"), Arrow("b", "u", "w"),
                             Arrow("b*a", "u", "w")])


def test_path_layer_index_maps():
    # the word maps agree with `compose` on the paths the words stand for,
    # and each layer lists the paths of the former `Path` walk, in its order
    q = Quiver(["1", "2"], [Arrow("a", "1", "2", 1), Arrow("b", "2", "1", 2),
                            Arrow("c", "2", "2", 1)])
    layers, former = [], []
    for w in range(6):
        layer, steps = path_layer(q, layers, w)
        starts, ends, words = layer
        paths = [q.path(s, word) for s, word in zip(starts, words)]
        assert [(p.start, p.end) for p in paths] == list(zip(starts, ends))
        assert all(q.word(p) == word for p, word in zip(paths, words))
        former_paths, former_steps = path_layer_of_paths(q, former, w)
        assert paths == former_paths and steps == former_steps
        assert all(p.weight() == w for p in paths)
        assert len(steps) == sum(a.degree <= w for a in q.arrows)
        for a, (v, right, left) in zip([a for a in q.arrows if a.degree <= w], steps):
            assert v == w - a.degree
            arrow = Path(a.source, a.target, (a,))
            below = [q.path(s, word) for s, word in zip(layers[v][0], layers[v][2])]
            for k, p in enumerate(below):
                if p.start == a.target:
                    assert paths[right[k]] == compose(p, arrow)
                if p.end == a.source:
                    assert paths[left[k]] == compose(arrow, p)
            assert len(right) == sum(p.start == a.target for p in below)
            assert len(left) == sum(p.end == a.source for p in below)
        layers.append(layer)
        former.append(former_paths)


def test_path_layer_budget():
    q = Quiver(["v"], [Arrow("x", "v", "v"), Arrow("y", "v", "v")])
    layers = []
    for w in range(15):
        layers.append(path_layer(q, layers, w)[0])
    assert len(layers[14][2]) == 2 ** 14   # 16 384 paths of length 14
    with pytest.raises(PathBudgetExceeded, match=str(PATH_BUDGET)):
        path_layer(q, layers, 15)
