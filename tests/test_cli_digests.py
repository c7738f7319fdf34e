"""The command line's exact bytes: exit code, stdout and stderr of a fixed
matrix of calls, pinned by their SHA-256 in `cli_digests.json`.

Every call runs in process from a working directory holding the corpus
files and a few faulty inputs, named relatively, so the paths that the
reports print do not depend on where the suite runs.  Regenerate the file
only when the reports are meant to change:

    python3 tests/test_cli_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

DIGESTS = Path(__file__).with_name("cli_digests.json")

# the calls made on every corpus file, after the command and the file name
PER_FILE = (
    ("info",),
    ("trivext",),
    ("trivext", "--relations-cap", "2"),
    ("verdict",),
    ("verdict", "--extend"),
    ("verdict", "--extend", "--hh-check", "3"),
    ("cartan",),
    ("hh", "--max", "3"),
    ("hh", "--max", "2", "--full-bar"),
)

# faulty inputs beside the corpus files
EXTRA_FILES = {
    "malformed.quiver": "vertices\n",
    # graded by no arrow degree and no homogeneous relation
    "ungraded.quiver": "field Q\nvertices v\narrow x : v -> v\n"
                       "relation x*x - x*x*x\nnilpotency_bound 4\n",
    # 2^w paths of weight w: the path budget stops the build
    "two_loops.quiver": "field Q\nvertices v\narrow x : v -> v\narrow y : v -> v\n",
}

# (TRIVEXT_DIM_CAP or None, argv): the error branches and the tuple cap
SINGLE = (
    (None, ("info", "malformed.quiver")),
    (None, ("info", "missing.quiver")),
    (None, ("trivext", "ungraded.quiver", "--graded")),
    (None, ("cartan", "ungraded.quiver")),
    (None, ("info", "two_loops.quiver")),
    (None, ("--pretty", "info", "dual_numbers.quiver")),
    (None, ("--pretty", "verdict", "path_a2.quiver", "--extend")),
    (None, ("verdict", "dual_numbers.quiver", "--extend", "--hh-check", "0")),
    (None, ("corpus",)),
    ("ten", ("hh", "dual_numbers.quiver", "--max", "3")),
    ("-3", ("verdict", "dual_numbers.quiver", "--extend", "--hh-check", "2")),
    ("0", ("hh", "dual_numbers.quiver", "--max", "3")),
    ("1", ("hh", "dual_numbers.quiver", "--max", "3")),
    ("3", ("hh", "dual_numbers.quiver", "--max", "3")),
    ("3", ("hh", "dual_numbers.quiver", "--max", "3", "--full-bar")),
    ("10", ("verdict", "dual_numbers.quiver", "--extend", "--hh-check", "4")),
)


def calls():
    """Every (TRIVEXT_DIM_CAP, argv) of the matrix, in a fixed order."""
    from trivext.corpus import CORPUS
    for entry in CORPUS:
        for command, *options in PER_FILE:
            yield None, (command, f"{entry.name}.quiver", *options)
    yield from SINGLE


def outcome(cap, argv) -> str:
    """The SHA-256 of the exit code, stdout and stderr of one call."""
    from trivext.cli import main
    saved = os.environ.pop("TRIVEXT_DIM_CAP", None)
    if cap is not None:
        os.environ["TRIVEXT_DIM_CAP"] = cap
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.environ.pop("TRIVEXT_DIM_CAP", None)
        if saved is not None:
            os.environ["TRIVEXT_DIM_CAP"] = saved
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def key(cap, argv) -> str:
    return " ".join(argv) if cap is None else f"TRIVEXT_DIM_CAP={cap} " + " ".join(argv)


def digests(workdir: Path) -> dict:
    """The digest of every call, run from `workdir` after the input files
    are written there."""
    from trivext.corpus import CORPUS, corpus_text
    for entry in CORPUS:
        (workdir / f"{entry.name}.quiver").write_text(corpus_text(entry.name))
    for name, text in EXTRA_FILES.items():
        (workdir / name).write_text(text)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        return {key(cap, argv): outcome(cap, argv) for cap, argv in calls()}
    finally:
        os.chdir(here)


def test_cli_bytes_match_the_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    got = digests(tmp_path)
    assert list(got) == list(expected)
    assert [k for k in got if got[k] != expected[k]] == []


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        got = digests(Path(tmp))
    DIGESTS.write_text(json.dumps(got, indent=1) + "\n")
    print(f"{len(got)} digests written to {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
