"""Set-up of one benchmark run: import the CLI and write the input files.

Run as a script it is the set-up probe: a fresh interpreter that does the
set-up once and exits, so that the runner can time set-up from interpreter
start to the last input file written.

    python3 bench/prepare.py --workload certify --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SetupError(RuntimeError):
    """The checkout does not hold the program's sources."""


def import_cli():
    """Import `trivext.cli` from this checkout's `src/`, never from an
    installed copy."""
    if not (SRC / "trivext" / "cli.py").is_file():
        raise SetupError(f"no trivext sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from trivext import cli
    if Path(cli.__file__).resolve().parent != SRC / "trivext":
        raise SetupError(f"trivext imported from {cli.__file__}, not {SRC}")
    return cli


def corpus_texts() -> dict:
    from inputs import CORPUS_SMALL
    from trivext.corpus import corpus_text
    return {name: corpus_text(name) for name in CORPUS_SMALL}


def prepare(workload: str, seed: int, out: Path):
    """Import the CLI, generate the workload's inputs and write one
    `.quiver` file per input; returns the CLI module, the cases and
    their paths."""
    cli = import_cli()
    from inputs import workload_cases
    cases = workload_cases(workload, seed, corpus_texts())
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        path = out / f"{case.id}.quiver"
        path.write_text(case.text)
        paths.append(path)
    return cli, cases, paths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    prepare(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
