"""Command line interface: JSON reports over the presentation DSL.

Commands: info, trivext, verdict, cartan, hh, corpus.  Reports go to
stdout as JSON (or readable text with --pretty) and are byte-identical
across runs on the same input and options; wall-clock timing is only
included when --timing is passed.  Exit codes: 0 success/certified,
2 input error, 3 unknown verdict, 4 resource cap hit.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .algebra import (AlgebraBuildError, FDAlgebra, arrows_of, build_algebra,
                      is_local, radical_chain, selfinjectivity,
                      SelfinjectivityCertificate, socles)
from .corpus import run_corpus
from .criteria import graded_cartan, hhdim_verdict
from .dsl import DSLError, parse_presentation
from .hochschild import DEFAULT_TUPLE_CAP, chain_module, hh_dims
from .quiver import PathBudgetExceeded
from .trivial_extension import (check_new_products_vanish, relations_up_to,
                                trivial_extension)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_CAP = 4

SCHEMA = "trivext-report/1"

# least accepted value of each integer option: HH_0 alone corroborates
# nothing, and a relation needs at least two arrows
MINIMUM = {"--hh-check": 1, "--max": 0, "--relations-cap": 2}


def _tuple_cap() -> int:
    env = os.environ.get("TRIVEXT_DIM_CAP")
    if env is None:
        return DEFAULT_TUPLE_CAP
    try:
        cap = int(env)
    except ValueError:
        raise DSLError(f"TRIVEXT_DIM_CAP must be an integer, got {env!r}")
    if cap < 0:
        raise DSLError(f"TRIVEXT_DIM_CAP must be at least 0, got {cap}")
    return cap


def _cap_error(B: FDAlgebra, report, cap: int) -> None:
    """The error line of a report the tuple cap truncated: the chain
    module over the cap, its dimension and the cap."""
    k = report.truncated_at
    size = chain_module(B, k, report.variant).dimension
    print(f"error: dim C_{k} = {size} is over the tuple cap {cap} "
          "(TRIVEXT_DIM_CAP)", file=sys.stderr)


def _load(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DSLError(f"cannot read {path}: {exc.strerror}")
    pres = parse_presentation(raw.decode("utf-8"))
    digest = hashlib.sha256(raw).hexdigest()
    return pres, digest


def _algebra_summary(A: FDAlgebra, new=()) -> dict:
    """The structure report of A; the arrows whose basis indices are in
    `new` are flagged new."""
    chain = radical_chain(A)
    soc = socles(A)
    selfinj = selfinjectivity(A)
    out = {
        "dimension": A.dim,
        "vertices": list(A.vertex_names),
        "basis": list(A.basis_labels),
        "arrows": [{"name": a.name, "source": a.source, "target": a.target,
                    "new": k in new} for k, a in zip(A.arrows, arrows_of(A, A.arrows))],
        "radical_filtration": [s.rank for s in chain],
        "loewy_length": len(chain) - 1,
        "socle_dims": {
            "left": [s.rank for s in soc.left],
            "right": [s.rank for s in soc.right],
            "bimodule": soc.bimodule.rank,
        },
        "local": is_local(A),
        "selfinjective": isinstance(selfinj, SelfinjectivityCertificate),
        "graded": A.is_graded,
    }
    if isinstance(selfinj, SelfinjectivityCertificate):
        out["nakayama_permutation"] = [A.vertex_names[j]
                                       for j in selfinj.permutation]
    else:
        out["selfinjectivity_refusal"] = selfinj.reason
    if A.is_graded:
        out["top_degree"] = A.top_degree
        out["degrees"] = list(A.degrees)
    if A.bound_conditional:
        out["conditional_on_nilpotency_bound"] = True
    return out


def _report(command: str, result: dict, input_digest=None, path=None) -> dict:
    rep = {
        "schema": SCHEMA,
        "tool": {"name": "trivext", "version": __version__},
        "command": command,
        "result": result,
    }
    if path is not None:
        rep["input"] = {"path": path, "sha256": input_digest}
    return rep


def _emit(rep: dict, args) -> None:
    if args.timing:
        rep["timing"] = {"seconds": round(time.monotonic() - args._t0, 3)}
    if args.pretty:
        _print_pretty(rep)
    else:
        print(_json(rep))


def _json(obj, pad: str = "\n") -> str:
    """`obj` as `json.dumps(obj, sort_keys=True, indent=2)` writes it,
    byte for byte, without the pure-Python encoder that `indent` selects.
    Keys are sorted, strings get ASCII escapes, items are separated by `,`
    and keys followed by `: `, and `pad` (a newline and the current
    indent) comes before each item and each closing bracket.  A key that
    is not a str is written as its scalar, then quoted.  Exact strs and
    ints, which fill the reports, are tested first."""
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k if isinstance(k, str) else _scalar(k)) + ": "
            + _json(v, inner) for k, v in sorted(obj.items())]) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(x, inner) for x in obj]) + pad + "]"
    return _scalar(obj)


_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(obj) -> str:
    """A JSON scalar as `json` writes it: str, None, bool, int or float."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _FLOAT_NAMES.get(text, text)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _print_pretty(rep: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in rep if isinstance(rep, dict) else ():
        val = rep[key]
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _print_pretty(val, indent + 1)
        elif isinstance(val, list) and val and isinstance(val[0], (dict, list)):
            print(f"{pad}{key}:")
            for item in val:
                if isinstance(item, (dict, list)):
                    _print_pretty(item, indent + 1)
                    print()
                else:
                    print(f"{pad}  {item}")
        else:
            print(f"{pad}{key}: {val}")


def cmd_info(args) -> int:
    pres, digest = _load(args.file)
    A = build_algebra(pres)
    rep = _report("info", {"algebra": _algebra_summary(A)}, digest, args.file)
    _emit(rep, args)
    return EXIT_OK


def cmd_trivext(args) -> int:
    pres, digest = _load(args.file)
    A = build_algebra(pres)
    if args.graded and not A.is_graded:
        raise AlgebraBuildError("--graded requested but the algebra carries "
                                "no grading")
    tri = trivial_extension(A)
    rels = relations_up_to(tri, args.relations_cap)
    result = {
        "algebra": _algebra_summary(A),
        "extension": _algebra_summary(tri.T, tri.new_arrows),
        "new_arrows": [{"name": a.name, "source": a.source, "target": a.target,
                        "x_beta": a.name} for a in arrows_of(tri.T, tri.new_arrows)],
        "dual_part_products_vanish": check_new_products_vanish(tri),
        "relations": {
            "cap": rels.cap,
            "generators": [r.label() for r in rels.generators],
            "quotient_dim": rels.quotient_dim,
            "complete": rels.complete,
        },
    }
    rep = _report("trivext", result, digest, args.file)
    _emit(rep, args)
    return EXIT_OK


def cmd_verdict(args) -> int:
    pres, digest = _load(args.file)
    verdict = hhdim_verdict(build_algebra(pres), extend=args.extend)
    result = {"verdict": verdict.to_json()}
    if verdict.cycle is not None:
        # find_two_truncated_cycle re-verifies every cycle it returns with
        # verify_cycle_certificate and raises if the check fails
        result["certificate_reverified"] = True
    if verdict.cartan is not None:
        result["cartan"] = verdict.cartan.to_json()
    code = EXIT_OK if verdict.is_infinite else EXIT_UNKNOWN
    if args.hh_check is not None:
        cap = _tuple_cap()
        hh = hh_dims(verdict.algebra, args.hh_check, cap=cap)
        result["hh_check"] = {
            "dims": hh.dims,
            "truncated_at": hh.truncated_at,
            "corroborates_infinite": (hh.corroborates_infinite()
                                      if verdict.is_infinite else None),
        }
    rep = _report("verdict", result, digest, args.file)
    _emit(rep, args)
    if args.hh_check is not None and hh.truncated_at is not None:
        _cap_error(verdict.algebra, hh, cap)
        return EXIT_CAP
    return code


def cmd_cartan(args) -> int:
    pres, digest = _load(args.file)
    A = build_algebra(pres)
    if not A.is_graded:
        raise AlgebraBuildError("graded Cartan data needs a graded algebra "
                                "(give arrow degrees or length-homogeneous "
                                "relations)")
    g = graded_cartan(A)
    rep = _report("cartan", {"cartan": g.to_json()}, digest, args.file)
    _emit(rep, args)
    return EXIT_OK


def cmd_hh(args) -> int:
    pres, digest = _load(args.file)
    A = build_algebra(pres)
    cap = _tuple_cap()
    variant = "full" if args.full_bar else "normalized"
    report = hh_dims(A, args.max, variant=variant, cap=cap)
    result = {
        "algebra": args.file,
        "variant": report.variant,
        "dims": report.dims,
        "truncated_at": report.truncated_at,
        "tuple_cap": cap,
    }
    rep = _report("hh", result, digest, args.file)
    _emit(rep, args)
    if report.truncated_at is not None:
        _cap_error(A, report, cap)
        return EXIT_CAP
    return EXIT_OK


def cmd_corpus(args) -> int:
    res = run_corpus()
    rep = _report("corpus", res)
    _emit(rep, args)
    if not res["ok"]:
        first = next(e["name"] for e in res["entries"] if not e["ok"])
        print(f"corpus failure in entry {first}", file=sys.stderr)
        return 1
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trivext",
        description="Trivial extensions of quiver algebras and certificates "
                    "of infinite Hochschild homology dimension.")
    parser.add_argument("--pretty", action="store_true",
                        help="readable text instead of JSON")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report "
                             "(breaks byte-identical reproducibility)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="algebra summary for a presentation file")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("trivext", help="build the trivial extension")
    p.add_argument("file")
    p.add_argument("--graded", action="store_true",
                   help="require the grading to be present")
    p.add_argument("--relations-cap", type=int, default=None, metavar="L",
                   help="search ideal generators up to this path length")
    p.set_defaults(func=cmd_trivext)

    p = sub.add_parser("verdict", help="certify infinite homology dimension")
    p.add_argument("file")
    p.add_argument("--extend", action="store_true",
                   help="pass to the trivial extension before testing")
    p.add_argument("--hh-check", type=int, default=None, metavar="N",
                   help="corroborate with the homology oracle up to degree N")
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("cartan", help="graded Cartan matrix and determinant")
    p.add_argument("file")
    p.set_defaults(func=cmd_cartan)

    p = sub.add_parser("hh", help="Hochschild homology dimensions")
    p.add_argument("file")
    p.add_argument("--max", type=int, default=4, metavar="N")
    p.add_argument("--full-bar", action="store_true",
                   help="use the full bar complex instead of the normalized one")
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("corpus", help="run the bundled example corpus")
    p.set_defaults(func=cmd_corpus)
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    args._t0 = time.monotonic()
    for flag, low in MINIMUM.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and value < low:
            print(f"error: {flag} must be at least {low}, got {value}",
                  file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.func(args)
    except (DSLError, AlgebraBuildError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PathBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
