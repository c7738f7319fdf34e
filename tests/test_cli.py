"""The command line surface: reports, determinism, exit codes."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import trivext.algebra
import trivext.criteria
from trivext.algebra import AlgebraBuildError, build_algebra
from trivext.cli import _json, main
from trivext.corpus import CORPUS, corpus_text
from trivext.dsl import serialize_presentation
from trivext.quiver import PathBudgetExceeded

from test_builder import random_presentation

DUAL = corpus_text("dual_numbers")
A2 = corpus_text("path_a2")
K = corpus_text("semisimple_k")


@pytest.fixture
def dual_file(tmp_path):
    f = tmp_path / "dual.quiver"
    f.write_text(DUAL)
    return str(f)


@pytest.fixture
def a2_file(tmp_path):
    f = tmp_path / "a2.quiver"
    f.write_text(A2)
    return str(f)


@pytest.fixture
def k_file(tmp_path):
    f = tmp_path / "k.quiver"
    f.write_text(K)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_report(capsys, dual_file):
    code, out, _ = run(capsys, "info", dual_file)
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "trivext-report/1"
    assert rep["command"] == "info"
    alg = rep["result"]["algebra"]
    assert alg["dimension"] == 2
    assert alg["local"] and alg["selfinjective"] and alg["graded"]
    assert alg["loewy_length"] == 2
    assert len(rep["input"]["sha256"]) == 64


def test_info_five_vertex(capsys, tmp_path):
    f = tmp_path / "five.quiver"
    f.write_text(corpus_text("five_vertex_weighted"))
    code, out, _ = run(capsys, "info", str(f))
    assert code == 0
    alg = json.loads(out)["result"]["algebra"]
    assert alg["dimension"] == 13
    assert alg["graded"] and alg["top_degree"] == 6


def test_malformed_file_exits_2(capsys, tmp_path):
    f = tmp_path / "bad.quiver"
    f.write_text("vertices\n")
    code, out, err = run(capsys, "info", str(f))
    assert code == 2
    assert "error" in err
    code, _out, err = run(capsys, "info", str(tmp_path / "missing.quiver"))
    assert code == 2


def test_zero_arrow_degree_exits_2(capsys, tmp_path):
    f = tmp_path / "deg0.quiver"
    f.write_text("field Q\nvertices v\narrow x : v -> v deg 0\n")
    for argv in (["info", str(f)], ["verdict", str(f), "--extend"]):
        assert run(capsys, *argv) == (
            2, "", "error: arrow degrees must be >= 1 (line 3)\n"), argv


@pytest.mark.parametrize("text, vertex", [
    ("vertices u v\narrow e_u : u -> v\n", "u"),
    # the colliding vertex may be declared after the arrow
    ("vertices u v\narrow e_w : u -> v\nvertices w\n", "w"),
], ids=["declared_before", "declared_after"])
def test_arrow_named_as_a_stationary_path_exits_2(capsys, tmp_path, text, vertex):
    f = tmp_path / "collide.quiver"
    f.write_text(text)
    assert run(capsys, "info", str(f)) == (
        2, "", f"error: arrow name 'e_{vertex}' is the label of the stationary "
        f"path at vertex '{vertex}' (line 2)\n")


def test_vertex_name_with_a_star_exits_2(capsys, tmp_path):
    # with a vertex a*b, the path b then e_a would be labelled e_a*b, the
    # label of the stationary path at a*b
    f = tmp_path / "star.quiver"
    f.write_text("field Q\nvertices a*b\narrow e_a : a*b -> a*b\narrow b : a*b -> a*b\n"
                 "relation e_a*e_a\nrelation e_a*b\nrelation b*e_a\nrelation b*b\n")
    for argv in (["info", str(f)], ["verdict", str(f), "--extend"]):
        assert run(capsys, *argv) == (
            2, "", "error: bad vertex name 'a*b' (must not contain '*', which joins "
            "the arrows of a path label) (line 2)\n"), argv


def test_second_nilpotency_bound_exits_2(capsys, tmp_path):
    f = tmp_path / "bounds.quiver"
    f.write_text("field Q\nvertices v\narrow x : v -> v\nrelation x*x - x*x*x\n"
                 "nilpotency_bound 4\nnilpotency_bound 9\n")
    for argv in (["info", str(f)], ["verdict", str(f), "--extend"]):
        assert run(capsys, *argv) == (
            2, "", "error: nilpotency_bound declared twice (line 6)\n"), argv


def test_fp_denominator_divisible_by_p_exits_2(capsys, tmp_path):
    f = tmp_path / "den.quiver"
    f.write_text("field F 5\nvertices v\narrow x : v -> v\nrelation 1/5*x*x\n")
    assert run(capsys, "info", str(f)) == (
        2, "", "error: denominator of 1/5 is not invertible in F 5 "
        "(line 4, column 12)\n")


def test_free_loop_exits_2_with_the_window_message(capsys, tmp_path):
    f = tmp_path / "loop.quiver"
    f.write_text("field Q\nvertices v\narrow x : v -> v\n")
    assert run(capsys, "info", str(f)) == (
        2, "", "error: no window of 1 empty weight slices up to weight 256; "
        "the presentation may not define a finite dimensional algebra\n")


def test_trivext_command(capsys, k_file):
    code, out, _ = run(capsys, "trivext", k_file)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["extension"]["dimension"] == 2
    assert res["new_arrows"] == [{"name": "e_v*", "source": "v", "target": "v",
                                 "x_beta": "e_v*"}]
    assert res["relations"]["generators"] == ["e_v**e_v*"]
    assert res["relations"]["complete"] is True
    assert res["dual_part_products_vanish"] is True


def test_trivext_graded_flag_on_ungraded(capsys, tmp_path):
    f = tmp_path / "bound.quiver"
    f.write_text("field Q\nvertices v\narrow x : v -> v\n"
                 "relation x*x - x*x*x\nnilpotency_bound 4\n")
    code, _out, err = run(capsys, "trivext", str(f), "--graded")
    assert code == 2
    assert "grading" in err


def test_verdict_exit_codes(capsys, dual_file, a2_file, k_file):
    code, out, _ = run(capsys, "verdict", dual_file, "--extend")
    assert code == 0
    rep = json.loads(out)["result"]
    assert rep["verdict"]["conclusion"] == "infinite_hhdim"
    assert rep["verdict"]["certificate"]["kind"] == "two_truncated_cycle"
    assert rep["certificate_reverified"] is True

    code, out, _ = run(capsys, "verdict", a2_file, "--extend")
    assert code == 0
    rep = json.loads(out)["result"]
    assert rep["verdict"]["certificate"]["kind"] == "graded_cartan_determinant"
    assert rep["verdict"]["certificate"]["determinant"] == "1 + x^2 + x^4"

    code, out, _ = run(capsys, "verdict", k_file)
    assert code == 3
    assert json.loads(out)["result"]["verdict"]["conclusion"] == "unknown"


def test_verdict_hh_check(capsys, dual_file):
    code, out, _ = run(capsys, "verdict", dual_file, "--extend", "--hh-check", "3")
    assert code == 0
    hh = json.loads(out)["result"]["hh_check"]
    assert hh["corroborates_infinite"] is True
    assert dict(map(tuple, hh["dims"]))[1] >= 1


def test_verdict_hh_check_cap_exit(capsys, dual_file, monkeypatch):
    monkeypatch.setenv("TRIVEXT_DIM_CAP", "10")
    code, out, err = run(capsys, "verdict", dual_file, "--extend", "--hh-check", "4")
    assert code == 4
    hh_check = json.loads(out)["result"]["hh_check"]
    assert hh_check["truncated_at"] == 1
    # degrees cut off by the cap corroborate nothing
    assert hh_check["corroborates_infinite"] is None
    # C_1 of T(dual_numbers) has 4 * 3 tuples
    assert err == "error: dim C_1 = 12 is over the tuple cap 10 (TRIVEXT_DIM_CAP)\n"


@pytest.mark.parametrize("value", ["-3", "ten"])
def test_tuple_cap_must_be_a_nonnegative_integer(capsys, dual_file, monkeypatch, value):
    monkeypatch.setenv("TRIVEXT_DIM_CAP", value)
    for argv in (["hh", dual_file, "--max", "3"],
                 ["verdict", dual_file, "--extend", "--hh-check", "2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: TRIVEXT_DIM_CAP must be") and err.count("\n") == 1
    # a cap of 0 is a cap: C_0 is over it
    monkeypatch.setenv("TRIVEXT_DIM_CAP", "0")
    code, out, err = run(capsys, "hh", dual_file, "--max", "3")
    assert code == 4 and json.loads(out)["result"]["truncated_at"] == 0
    assert err == "error: dim C_0 = 2 is over the tuple cap 0 (TRIVEXT_DIM_CAP)\n"


def corpus_file(tmp_path, name):
    f = tmp_path / f"{name}.quiver"
    f.write_text(corpus_text(name))
    return str(f)


@pytest.mark.parametrize("name,degree,dims", [
    ("nakayama_cycle_2", 4, [[0, 3], [1, 4], [2, 6], [3, 8], [4, 10]]),
    ("nakayama_cycle_3", 3, [[0, 4], [1, 2], [2, 3], [3, 2]]),
])
def test_verdict_hh_check_fits_default_cap(capsys, tmp_path, name, degree, dims):
    # both exceeded the default tuple cap on the bar complex over k
    code, out, _ = run(capsys, "verdict", corpus_file(tmp_path, name), "--extend",
                       "--hh-check", str(degree))
    assert code == 0
    hh = json.loads(out)["result"]["hh_check"]
    assert hh["dims"] == dims and hh["truncated_at"] is None
    assert hh["corroborates_infinite"] is True


def test_corroborates_infinite_reads_the_top_degree(capsys, tmp_path):
    # T(five_vertex_weighted) has HH_2 = HH_3 = 0 and HH_4 = 1: HHdim = infinity
    # needs HH_n != 0 for infinitely many n, not for every n
    path = corpus_file(tmp_path, "five_vertex_weighted")
    for degree, flag in (("2", False), ("3", False), ("4", True)):
        code, out, _ = run(capsys, "verdict", path, "--extend", "--hh-check", degree)
        assert code == 0
        hh = json.loads(out)["result"]["hh_check"]
        assert hh["dims"][2:] == [[2, 0], [3, 0], [4, 1]][:int(degree) - 1]
        assert hh["corroborates_infinite"] is flag, degree


@pytest.mark.parametrize("argv", [
    ("verdict", "--extend", "--hh-check", "0"),
    ("verdict", "--hh-check", "-1"),
    ("hh", "--max", "-1"),
    ("trivext", "--relations-cap", "1"),
])
def test_out_of_range_option_is_input_error(capsys, dual_file, argv):
    command, *options = argv
    code, out, err = run(capsys, command, dual_file, *options)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and options[-2] in err


def test_smallest_accepted_option_values(capsys, dual_file):
    code, out, _ = run(capsys, "verdict", dual_file, "--extend", "--hh-check", "1")
    assert code == 0
    assert json.loads(out)["result"]["hh_check"]["corroborates_infinite"] is True
    code, out, _ = run(capsys, "hh", dual_file, "--max", "0")
    assert code == 0
    assert json.loads(out)["result"]["dims"] == [[0, 2]]
    code, out, _ = run(capsys, "trivext", dual_file, "--relations-cap", "2")
    assert code == 0
    assert json.loads(out)["result"]["relations"]["cap"] == 2


def test_cartan_command(capsys, a2_file):
    code, out, _ = run(capsys, "cartan", a2_file)
    assert code == 0
    res = json.loads(out)["result"]["cartan"]
    assert res["determinant"] == "1"
    assert res["entries"] == [["1", "x"], ["0", "1"]]


def test_hh_command_and_cap(capsys, dual_file, monkeypatch):
    code, out, _ = run(capsys, "hh", dual_file, "--max", "3")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["dims"] == [[0, 2], [1, 1], [2, 1], [3, 1]]

    code, out, _ = run(capsys, "hh", dual_file, "--max", "3", "--full-bar")
    assert code == 0
    assert json.loads(out)["result"]["variant"] == "full"

    # the normalized chain modules of the dual numbers all have dimension 2
    monkeypatch.setenv("TRIVEXT_DIM_CAP", "1")
    code, out, err = run(capsys, "hh", dual_file, "--max", "3")
    assert code == 4
    assert json.loads(out)["result"]["truncated_at"] is not None
    assert err == "error: dim C_0 = 2 is over the tuple cap 1 (TRIVEXT_DIM_CAP)\n"


def test_reports_byte_identical(capsys, dual_file):
    _, out1, _ = run(capsys, "verdict", dual_file, "--extend", "--hh-check", "2")
    _, out2, _ = run(capsys, "verdict", dual_file, "--extend", "--hh-check", "2")
    assert out1 == out2
    _, out1, _ = run(capsys, "info", dual_file)
    _, out2, _ = run(capsys, "info", dual_file)
    assert out1 == out2


def test_timing_flag_adds_timing(capsys, k_file):
    _, out, _ = run(capsys, "--timing", "info", k_file)
    assert "timing" in json.loads(out)


def reports_of(capsys, paths):
    """The parsed reports of info, trivext, verdict --extend (with a timing
    float on one of them) and hh --max 2 on each file."""
    out = []
    for path in paths:
        for argv in (["info", path], ["trivext", path], ["verdict", path, "--extend"],
                     ["--timing", "verdict", path], ["hh", path, "--max", "2"]):
            main(argv)
            out.append(json.loads(capsys.readouterr().out))
    return out


def seeded_files(tmp_path, count):
    """`count` seeded presentation files that build, over Q, F_3 and F_5,
    from at most 10 presentations per file; fails when they do not give
    `count`."""
    rng, fields, out = random.Random(2118), ["field Q", "field F 3", "field F 5"], []
    for _ in range(10 * count):
        if len(out) == count:
            return out
        pres = random_presentation(rng, rng.random() < 0.5, fields[len(out) % 3],
                                   bound=rng.choice([None, None, 3]))
        try:
            build_algebra(pres, max_weight=8)
        except (AlgebraBuildError, PathBudgetExceeded):
            continue
        f = tmp_path / f"seeded{len(out)}.quiver"
        f.write_text(serialize_presentation(pres))
        out.append(str(f))
    if len(out) < count:
        pytest.fail(f"{10 * count} seeded presentations gave {len(out)} files "
                    f"that build, not {count}")
    return out


def test_seeded_files_fail_when_every_build_raises(monkeypatch, tmp_path):
    # a fault that refuses every algebra ends the search with a failure,
    # after the bounded number of presentations, instead of a hang
    tried = 0

    def refuse(pres, **kw):
        nonlocal tried
        tried += 1
        raise AlgebraBuildError("refused")

    monkeypatch.setattr(sys.modules[__name__], "build_algebra", refuse)
    with pytest.raises(pytest.fail.Exception, match="30 seeded presentations gave 0 files"):
        seeded_files(tmp_path, 3)
    assert 0 < tried <= 30
    assert list(tmp_path.iterdir()) == []


def test_report_writer_matches_json_dumps(capsys, tmp_path):
    # the reports are written by `_json`, which must give the bytes of
    # json.dumps(..., sort_keys=True, indent=2) on every report and value
    paths = [corpus_file(tmp_path, e.name) for e in CORPUS] + seeded_files(tmp_path, 12)
    reports = reports_of(capsys, paths)
    assert any(isinstance(r.get("timing", {}).get("seconds"), float) for r in reports)
    main(["corpus"])
    reports.append(json.loads(capsys.readouterr().out))
    odd = [{}, [], {"a": {}, "b": [[], {}]}, [[[1]], {"x": [None]}], (1, (2, 3)),
           "plain", "λ*α", "e_\u00e9*\u2020", "quote \" back \\ slash / tab \t nl \n\x00\x7f",
           "\U0001d49c", True, False, None, 0, -17, 2 ** 80, 0.125, 1e-07, 3.0,
           -0.0, 1e300, float("nan"), float("inf"), float("-inf"),
           {"z": 1, "a": [True, None], "é": "ü", "": ""},
           {1: "int key", 2.5: "float key", False: "bool key"}, {None: "null key"},
           {"deep": {"er": {"est": [{"k": ({"v": 1},)}]}}}]
    for obj in reports + odd:
        assert _json(obj) == json.dumps(obj, sort_keys=True, indent=2), obj
    for bad in ({(1, 2): 3}, {"set": {1}}, [object()]):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            _json(bad)


def test_python_m_trivext_runs_the_cli(capsys, tmp_path):
    # `python -m trivext` gives the stdout and exit code of cli.main
    src = str(Path(trivext.algebra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    for name in ("dual_numbers", "path_a2"):
        path = corpus_file(tmp_path, name)
        code = main(["verdict", path, "--extend"])
        out = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "trivext", "verdict", path, "--extend"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr


def test_pretty_output_is_text(capsys, k_file):
    code, out, _ = run(capsys, "--pretty", "info", k_file)
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "dimension: 1" in out


def test_corpus_command(capsys, monkeypatch, corpus_result):
    monkeypatch.setattr("trivext.cli.run_corpus", lambda: corpus_result)
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["ok"] is True
    names = [e["name"] for e in res["entries"]]
    assert "five_vertex_weighted" in names and "negative_controls" in names


def test_corpus_command_reports_failure(capsys, monkeypatch, corpus_result):
    broken = {**corpus_result, "ok": False,
              "entries": [{**corpus_result["entries"][0], "ok": False}]}
    monkeypatch.setattr("trivext.cli.run_corpus", lambda: broken)
    code, _, err = run(capsys, "corpus")
    assert code == 1
    assert "semisimple_k" in err


TWO_LOOPS = "field Q\nvertices v\narrow x : v -> v\narrow y : v -> v\n"


@pytest.mark.parametrize("extra", ["", "relation x*x - y*y*y\nnilpotency_bound 40\n"],
                         ids=["free", "large_bound"])
def test_path_budget_exits_4(capsys, tmp_path, extra):
    # 2^w paths of weight w: the layer budget stops the build
    f = tmp_path / "loops.quiver"
    f.write_text(TWO_LOOPS + extra)
    code, out, err = run(capsys, "info", str(f))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and "paths of weight" in err


BOUNDED = ("field Q\nvertices v\narrow x : v -> v\n"
           "relation x*x - x*x*x\nnilpotency_bound 3\n")


def test_trivext_reports_bound_condition_on_extension(capsys, tmp_path, k_file):
    f = tmp_path / "bounded.quiver"
    f.write_text(BOUNDED)
    code, out, _ = run(capsys, "trivext", str(f))
    assert code == 0
    res = json.loads(out)["result"]
    assert res["algebra"]["conditional_on_nilpotency_bound"] is True
    assert res["extension"]["conditional_on_nilpotency_bound"] is True
    code, out, _ = run(capsys, "trivext", k_file)
    res = json.loads(out)["result"]
    assert "conditional_on_nilpotency_bound" not in res["extension"]


def test_verdict_hypotheses_name_bound_condition(capsys, tmp_path, dual_file):
    f = tmp_path / "bounded.quiver"
    f.write_text(BOUNDED)
    for argv in (["--extend"], []):
        code, out, _ = run(capsys, "verdict", str(f), *argv)
        hyp = json.loads(out)["result"]["verdict"]["hypotheses"]
        assert hyp["conditional_on_nilpotency_bound"] is True, argv
    code, out, _ = run(capsys, "verdict", dual_file, "--extend")
    assert json.loads(out)["result"]["verdict"]["hypotheses"] == {
        "local": True, "selfinjective": True, "graded": True}


def test_trivext_derives_structure_once_per_algebra(capsys, monkeypatch, tmp_path):
    # the report prints the radical chain, the socles and the
    # selfinjectivity of A and of T(A), and validation, T(A) and the
    # relation search need them too; each is derived once per algebra
    layers, annihilators = Counter(), Counter()
    arrow_layers = trivext.algebra.arrow_layers
    annihilator = trivext.algebra._annihilator

    def count_layers(A):
        layers[A] += 1  # a walk
        return arrow_layers(A)

    def count_annihilators(A, side):
        annihilators[A] += 1
        return annihilator(A, side)

    monkeypatch.setattr(trivext.algebra, "arrow_layers", count_layers)
    monkeypatch.setattr(trivext.algebra, "_annihilator", count_annihilators)
    f = tmp_path / "nakayama.quiver"
    f.write_text(corpus_text("nakayama_cycle_3"))
    code, out, _ = run(capsys, "trivext", str(f))
    assert code == 0
    res = json.loads(out)["result"]
    summaries = [res["algebra"], res["extension"]]
    assert all(s["selfinjective"] for s in summaries)
    # one arrow walk serves the radical chain, and validation adds none,
    # as it proves generation by table reads; the socles
    # of A take one left and one right kernel, and the bimodule socle is
    # their intersection, not a third kernel over all of A; those of T(A)
    # are read off its construction, with no kernel
    dims = sorted(s["dimension"] for s in summaries)
    assert sorted(X.dim for X in layers) == dims
    assert set(layers.values()) == {1}
    assert all("layer_sums" in X._derived for X in layers)
    assert {X.dim: n for X, n in annihilators.items()} == {res["algebra"]["dimension"]: 2}


def test_extended_verdict_walks_no_arrow_layers(capsys, monkeypatch, tmp_path):
    # verdict --extend validates A and T(A) but reads neither radical
    # chain, so generation is proved by table reads on every corpus file
    # and no arrow layers are derived, counted as above
    layers, checked = Counter(), Counter()
    arrow_layers = trivext.algebra.arrow_layers
    check_generation = trivext.algebra.FDAlgebra.check_generation

    def count_layers(A):
        layers[A] += 1
        return arrow_layers(A)

    def count_checks(A):
        checked[A] += 1
        return check_generation(A)

    monkeypatch.setattr(trivext.algebra, "arrow_layers", count_layers)
    monkeypatch.setattr(trivext.algebra.FDAlgebra, "check_generation", count_checks)
    for entry in CORPUS:
        f = tmp_path / f"{entry.name}.quiver"
        f.write_text(corpus_text(entry.name))
        for extra in ([], ["--hh-check", "2"]):
            checked.clear()
            code, _out, _ = run(capsys, "verdict", str(f), "--extend", *extra)
            assert code in (0, 3), (entry.name, extra)
            # A and T(A) were both validated
            dims = sorted(X.dim for X in checked)
            assert len(dims) == 2 and dims[1] == 2 * dims[0], (entry.name, extra)
            assert not layers, (entry.name, extra)


def test_verdict_verifies_the_cycle_once(capsys, monkeypatch, dual_file):
    # the cycle search re-verifies what it returns, and the report reads
    # that check instead of running it again
    original = trivext.criteria.verify_cycle_certificate
    calls = []

    def spy(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if (name.startswith("trivext")
                and getattr(module, "verify_cycle_certificate", None) is original):
            monkeypatch.setattr(module, "verify_cycle_certificate", spy)
    code, out, _ = run(capsys, "verdict", dual_file, "--extend")
    assert code == 0
    assert json.loads(out)["result"]["certificate_reverified"] is True
    assert len(calls) == 1
