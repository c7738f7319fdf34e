"""Correctness checks on the JSON reports of one CLI call.

Each check uses only what the generator knows about the input, a reference
computed before the timed loop, and the report itself; a failed check
counts the input as failed.  The `corroborates_infinite` flag of the report
is not trusted: it is vacuously true when the tuple cap cuts every degree.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass
class Reference:
    """Values computed once per input before timing starts."""

    commutator_rank: int | None = None   # rank [T, T] for corroborate
    digest: str | None = None            # golden report digest
    hh_dims: list | None = None          # golden [[n, dim HH_n], ...]


def report_digest(report: dict) -> str:
    """SHA-256 of the report as the CLI prints it, without `input.path`
    (the report embeds the path of the temporary input file)."""
    rep = json.loads(json.dumps(report))
    rep.get("input", {}).pop("path", None)
    text = json.dumps(rep, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def _cartan_problems(cartan: dict) -> list[str]:
    """The graded Cartan determinant of a graded trivial extension is
    monic of degree r(s+1) with constant term 1, where s+1 is its top
    degree."""
    coeffs = cartan["determinant_coeffs"]
    want = cartan["r"] * cartan["top_degree"]
    out = []
    if not coeffs or coeffs[0] != 1:
        out.append(f"Cartan determinant constant term {coeffs[:1]} != 1")
    if not coeffs or coeffs[-1] != 1:
        out.append("Cartan determinant is not monic")
    if len(coeffs) - 1 != want:
        out.append(f"Cartan determinant degree {len(coeffs) - 1} != r(s+1) = {want}")
    return out


def _verdict_problems(case, code: int, res: dict) -> list[str]:
    out = []
    verdict = res["verdict"]
    conclusion = verdict["conclusion"]
    if (code == 0) != (conclusion == "infinite_hhdim"):
        out.append(f"exit {code} with conclusion {conclusion}")
    if case.must_certify and conclusion != "infinite_hhdim":
        out.append(f"{case.family} input not certified: {conclusion}")
    hyp = verdict["hypotheses"]
    expected = {"local": case.local, "graded": case.graded}
    if case.selfinjective is not None:
        expected["selfinjective"] = case.selfinjective
    for key, want in expected.items():
        if hyp.get(key) != want:
            out.append(f"hypothesis {key} = {hyp.get(key)}, expected {want}")
    cert = verdict["certificate"]
    if (cert is None) == (conclusion == "infinite_hhdim"):
        out.append("certificate presence disagrees with the conclusion")
    if cert and cert["kind"] == "two_truncated_cycle":
        if res.get("certificate_reverified") is not True:
            out.append("cycle certificate not reverified")
    if cert and cert["kind"] == "graded_cartan_determinant":
        if "cartan" not in res:
            out.append("Cartan certificate without Cartan data")
        elif cert["determinant_coeffs"] != res["cartan"]["determinant_coeffs"]:
            out.append("Cartan certificate disagrees with the Cartan data")
    if "cartan" in res:
        out += _cartan_problems(res["cartan"])
    return out


def _hh_problems(case, conclusion: str, hh: dict, ref: Reference) -> list[str]:
    out = []
    dims = [tuple(x) for x in hh["dims"]]
    n_max = case.hh_degree
    if [n for n, _ in dims] != list(range(n_max + 1)):
        return [f"HH degrees {[n for n, _ in dims]} != 0..{n_max}"]
    if conclusion == "infinite_hhdim" and any(d < 1 for n, d in dims if n >= 1):
        out.append(f"HH vanishes in a requested degree: {dims}")
    if ref.commutator_rank is not None:
        want = 2 * case.dim_a - ref.commutator_rank
        if dims[0][1] != want:
            out.append(f"dim HH_0 = {dims[0][1]} != dim T - rank[T,T] = {want}")
    if ref.hh_dims is not None and [list(x) for x in dims] != ref.hh_dims:
        out.append(f"HH dims {dims} differ from the golden {ref.hh_dims}")
    return out


def _present_problems(case, res: dict) -> list[str]:
    out = []
    dim_a = res["algebra"]["dimension"]
    if dim_a != case.dim_a:
        out.append(f"dim A = {dim_a}, generator says {case.dim_a}")
    if res["extension"]["dimension"] != 2 * dim_a:
        out.append(f"dim T(A) = {res['extension']['dimension']} != 2 dim A")
    if res["dual_part_products_vanish"] is not True:
        out.append("products of dual-part elements do not vanish")
    return out


def check(workload: str, case, code: int, stdout: str,
          ref: Reference) -> list[str]:
    """Problems found in one call's exit code and report; empty if none."""
    if code not in case.accepted_exits:
        return [f"exit code {code} not in {case.accepted_exits}"]
    try:
        report = json.loads(stdout)
        res = report["result"]
        if workload == "present":
            problems = _present_problems(case, res)
        else:
            problems = _verdict_problems(case, code, res)
            if workload == "corroborate":
                problems += _hh_problems(case, res["verdict"]["conclusion"],
                                         res["hh_check"], ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]
    if ref.digest is not None and report_digest(report) != ref.digest:
        problems.append("report differs from the golden digest")
    return problems
