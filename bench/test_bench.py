"""Tests of the benchmark itself: generators, tracer, checks, golden file."""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from checks import Reference, check  # noqa: E402
from prepare import ROOT, corpus_texts, import_cli, prepare  # noqa: E402
from run import (GOLDEN_SEED, Tally, end_to_end, layer_metrics,  # noqa: E402
                 load_golden, references)
from tracer import SPANNED, Tracer  # noqa: E402

cli = import_cli()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    texts = corpus_texts()
    first = inputs.workload_cases(workload, 7, texts)
    assert first == inputs.workload_cases(workload, 7, texts)
    other = inputs.workload_cases(workload, 8, texts)
    assert [c.text for c in first] != [c.text for c in other]
    # fixed quotas: the shape of a run does not depend on the seed
    assert [(c.family, c.dim_a, c.hh_degree) for c in first] == \
           [(c.family, c.dim_a, c.hh_degree) for c in other]


def test_generated_dimensions_match_the_builder():
    from trivext.algebra import build_algebra
    from trivext.dsl import parse_presentation
    for case in inputs.workload_cases("certify", 3, corpus_texts()):
        A = build_algebra(parse_presentation(case.text))
        assert A.dim == case.dim_a, case.text


def _bindings():
    """Every trivext module attribute and patched class attribute."""
    from trivext.algebra import FDAlgebra
    from trivext.linalg import Echelon, SparseRank
    out = {}
    for name, mod in sys.modules.items():
        if name == "trivext" or name.startswith("trivext."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (FDAlgebra, Echelon, SparseRank):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    before = _bindings()
    path = tmp_path / "d.quiver"
    path.write_text("field Q\nvertices v\narrow x : v -> v\nrelation x*x\n")
    tracer = Tracer()
    with tracer:
        patched = {k for k, v in _bindings().items() if before[k] is not v}
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verdict", str(path), "--extend",
                             "--hh-check", "2"]) == 0
    assert _bindings() == before
    # functions imported by name are patched in every importing module
    assert ("trivext.cli", "hh_dims") in patched
    assert ("trivext.hochschild", "hh_dims") in patched
    assert ("trivext.criteria", "poly_det") in patched
    assert ("trivext.trivial_extension", "compose") in patched
    assert ("Echelon", "reduce") in patched
    assert len(tracer.names) == len(SPANNED)
    self_t, _incl, calls = tracer.self_times()
    assert calls["cli.main"] == 1 and calls["hochschild.hh"] == 1
    assert tracer.counts["quiver.compose"] > 0
    assert all(t >= 0 for t in self_t.values())
    # the traced call still works after restore, untraced
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verdict", str(path), "--extend"]) == 0
    assert tracer.span_count == sum(calls.values())


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    with tracer:
        pass
    names = set(layer_metrics(tracer, 1)) | {"trace.overhead_frac"}
    assert names == {m["name"] for m in spec["per_layer"]}


class Tampered:
    """A CLI whose reports are altered after the real call."""

    def __init__(self, mutate):
        self.mutate = mutate

    def main(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        report = json.loads(buf.getvalue())
        code = self.mutate(report["result"], code)
        print(json.dumps(report, sort_keys=True, indent=2))
        return code


def _wrong_hh0(res, code):
    res["hh_check"]["dims"][0][1] += 1
    return code


def _wrong_hh2(res, code):
    res["hh_check"]["dims"][2][1] += 1
    return code


def _flipped_verdict(res, code):
    res["verdict"]["conclusion"] = "unknown"
    res["verdict"]["certificate"] = None
    return 3


def _zero_hh_dim(res, code):
    res["hh_check"]["dims"][1][1] = 0
    return code


# dim HH_0 is checked against the commutator rank on every seed; a wrong
# but nonzero dim HH_n, n >= 1, only against the golden dims of GOLDEN_SEED.
@pytest.mark.parametrize("seed,mutate", [(1, _wrong_hh0), (1, _zero_hh_dim),
                                         (1, _flipped_verdict),
                                         (GOLDEN_SEED, _wrong_hh2)])
def test_checker_counts_wrong_reports_as_failed(tmp_path, seed, mutate,
                                                monkeypatch):
    monkeypatch.setenv("TRIVEXT_DIM_CAP", str(inputs.HH_TUPLE_BUDGET))
    _cli, cases, paths = prepare("corroborate", seed, tmp_path)
    # two cheap inputs that must be certified: dim T(A) = 4
    pick = [k for k, c in enumerate(cases)
            if c.dim_a == 2 and c.must_certify][:2]
    cases = [cases[k] for k in pick]
    paths = [paths[k] for k in pick]
    refs = references("corroborate", cases,
                      load_golden() if seed == GOLDEN_SEED else None)

    honest = Tally()
    end_to_end(cli, "corroborate", cases, paths, refs, 0, honest)
    assert (honest.attempted, honest.failed) == (2, 0), honest.problems

    tally = Tally()
    metrics, info = end_to_end(Tampered(mutate), "corroborate", cases, paths,
                               refs, 0, tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert info["samples"] == 2
    assert metrics["inputs_per_s"][0] == 0


def test_cartan_shape_check():
    case = inputs.Case("x", "radsq", "", dim_a=3, characteristic=0,
                       local=False, graded=True, selfinjective=None)
    res = {"verdict": {"conclusion": "infinite_hhdim", "hypotheses":
                       {"local": False, "graded": True},
                       "certificate": {"kind": "graded_cartan_determinant",
                                       "determinant_coeffs": [1, 0, 2]}},
           "cartan": {"r": 2, "top_degree": 2,
                      "determinant_coeffs": [1, 0, 2]}}
    problems = check("certify", case, 0, json.dumps({"result": res}),
                     Reference())
    assert problems == ["Cartan determinant is not monic",
                        "Cartan determinant degree 2 != r(s+1) = 4"]


def test_golden_reports_are_byte_identical(tmp_path):
    _cli, cases, paths = prepare("certify", GOLDEN_SEED, tmp_path)
    cases, paths = cases[:6], paths[:6]
    refs = references("certify", cases, load_golden())
    assert all(r.digest for r in refs)
    tally = Tally()
    end_to_end(cli, "certify", cases, paths, refs, 0, tally)
    assert tally.failed == 0, tally.problems
