"""Write `golden.json`: report digests and HH dimensions on GOLDEN_SEED.

    python3 bench/make_golden.py

Every input of every workload is run once through the CLI and must pass
the independent checks.  The HH dimensions of the corroborate inputs are
recomputed on the full bar complex wherever its chain modules stay under
FULL_BAR_BUDGET tuples, and must agree.  Rerun only when the report format
or the inputs change on purpose.
"""

from __future__ import annotations

import json
import os
import sys

from checks import report_digest
from inputs import HH_TUPLE_BUDGET, WORKLOADS
from prepare import prepare
from run import (GOLDEN, GOLDEN_SEED, WORK, Tally, argv_for, call,
                 references)

FULL_BAR_BUDGET = 40_000


def full_bar_dims(text: str, n_max: int):
    """dim HH_n on the full bar complex, or None if it is too large."""
    from trivext.algebra import build_algebra
    from trivext.dsl import parse_presentation
    from trivext.hochschild import hh_dims
    from trivext.trivial_extension import trivial_extension
    T = trivial_extension(build_algebra(parse_presentation(text))).T
    if sum(T.dim ** (n + 1) for n in range(1, n_max + 2)) > FULL_BAR_BUDGET:
        return None
    rep = hh_dims(T, n_max, variant="full", cap=FULL_BAR_BUDGET)
    return [list(x) for x in rep.dims]


def main() -> int:
    os.environ["TRIVEXT_DIM_CAP"] = str(HH_TUPLE_BUDGET)
    golden = {"seed": GOLDEN_SEED, "digests": {}, "hh_dims": {},
              "full_bar_checked": []}
    failed = 0
    for workload in WORKLOADS:
        cli, cases, paths = prepare(workload, GOLDEN_SEED,
                                    WORK / f"golden-{workload}")
        refs = references(workload, cases, None)
        tally = Tally()
        digests = {}
        for case, path, ref in zip(cases, paths, refs):
            code, out, _dt = call(cli, argv_for(workload, case, path))
            if not tally.record(workload, case, code, out, ref):
                continue
            report = json.loads(out)
            digests[case.id] = report_digest(report)
            if workload == "corroborate":
                dims = report["result"]["hh_check"]["dims"]
                golden["hh_dims"][case.id] = dims
                full = full_bar_dims(case.text, case.hh_degree)
                if full is not None:
                    if full != dims:
                        tally.problems.append(
                            f"{case.id}: full bar {full} != normalized {dims}")
                        tally.failed += 1
                    golden["full_bar_checked"].append(case.id)
        golden["digests"][workload] = digests
        failed += tally.failed
        for problem in tally.problems:
            print(f"{workload}: {problem}", file=sys.stderr)
        print(f"{workload}: {tally.attempted} inputs, {tally.failed} failed")
    print(f"full bar cross-checks: {len(golden['full_bar_checked'])}")
    if failed:
        print("golden.json not written", file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
