"""Layer spans recorded from outside the program.

`Tracer.install()` replaces the public functions of each trivext layer by
wrappers that record a span (name, start, end, parent span, input id) and
`Tracer.restore()` puts the originals back.  The functions are imported by
name across the package, so every `trivext.*` module attribute bound to an
original is patched, not only the defining one.  Spans stay in memory in
flat arrays; `self_times()` derives each layer's self time from them and
`write()` saves them when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (defining module, attribute or Class.method, span name)
SPANNED = (
    ("trivext.cli", "main", "cli.main"),
    ("trivext.dsl", "parse_presentation", "dsl.parse"),
    ("trivext.algebra", "build_algebra", "algebra.build"),
    ("trivext.algebra", "FDAlgebra.validate", "algebra.validate"),
    ("trivext.algebra", "socles", "algebra.socles"),
    ("trivext.algebra", "radical_chain", "algebra.radical_chain"),
    ("trivext.algebra", "selfinjectivity", "algebra.selfinjectivity"),
    ("trivext.trivial_extension", "trivial_extension", "trivial_extension.build"),
    ("trivext.trivial_extension", "relations_up_to", "trivial_extension.relations"),
    ("trivext.criteria", "hhdim_verdict", "criteria.verdict"),
    ("trivext.criteria", "find_two_truncated_cycle", "criteria.cycle"),
    ("trivext.criteria", "graded_cartan", "criteria.cartan"),
    ("trivext.criteria", "verify_cycle_certificate", "criteria.verify"),
    ("trivext.hochschild", "hh_dims", "hochschild.hh"),
    ("trivext.linalg", "SparseRank.add", "linalg.sparse_rank_add"),
    ("trivext.linalg", "Echelon.add", "linalg.echelon_add"),
    ("trivext.linalg", "Echelon.reduce", "linalg.echelon_reduce"),
    ("trivext.linalg", "row_reduce", "linalg.row_reduce"),
    ("trivext.linalg", "poly_det", "linalg.poly_det"),
)

# Called far too often for a span each; only their calls are counted.
COUNTED = (
    ("trivext.quiver", "compose", "quiver.compose"),
)


def _on_relations(tracer, result, args, kwargs):
    tracer.counts["trivial_extension.relations_generators"] += len(result.generators)


def _on_verdict(tracer, result, args, kwargs):
    tracer.counts["criteria.verdicts"] += 1
    tracer.counts["criteria.certified"] += result.is_infinite


def _on_hh(tracer, result, args, kwargs):
    from trivext.hochschild import chain_module
    B = args[0]
    variant = kwargs.get("variant", args[2] if len(args) > 2 else "normalized")
    # hh_dims ranks the boundaries b_1..b_last, each over the chain module
    # of its own degree; the degree refused by the cap is not built
    last = (result.truncated_at - 1 if result.truncated_at is not None
            else result.n_max + 1)
    tracer.counts["hochschild.chain_tuples"] += sum(
        chain_module(B, n, variant).dimension for n in range(1, last + 1))
    tracer.counts["hochschild.cap_hits"] += result.truncated_at is not None


def _count_useful(name):
    def hook(tracer, result, args, kwargs):
        tracer.counts[name] += bool(result)
    return hook


HOOKS = {
    "trivial_extension.relations": _on_relations,
    "criteria.verdict": _on_verdict,
    "hochschild.hh": _on_hh,
    "linalg.sparse_rank_add": _count_useful("linalg.sparse_rank_useful"),
    "linalg.echelon_add": _count_useful("linalg.echelon_useful"),
}


def _resolve(module_name, qualname):
    owner = sys.modules[module_name]
    *cls, attr = qualname.split(".")
    if cls:
        owner = getattr(owner, cls[0])
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: array = array("H")
        self.parent: array = array("i")
        self.input: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.counts: Counter = Counter()
        self.current_input = -1
        self.scale: dict[int, float] = {}  # root span index -> time scale
        self._stack: list[int] = []
        self._bindings: list[tuple] = []   # (owner, attr, original, wrapper)
        self._installed = False

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Bind every wrapper in place of its original."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._bindings:
            for module_name, qualname, name in SPANNED:
                self._plan(module_name, qualname, self._span_wrapper(name))
            for module_name, qualname, name in COUNTED:
                self._plan(module_name, qualname, self._count_wrapper(name))
        for owner, attr, _orig, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        self._installed = True

    def _plan(self, module_name, qualname, make_wrapper) -> None:
        owner, attr, orig = _resolve(module_name, qualname)
        wrapper = make_wrapper(orig)
        if isinstance(owner, type):
            self._bindings.append((owner, attr, orig, wrapper))
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "trivext" and not mod_name.startswith("trivext."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._bindings.append((mod, key, orig, wrapper))

    def restore(self) -> None:
        """Put every original back."""
        for owner, attr, orig, _wrapper in reversed(self._bindings):
            setattr(owner, attr, orig)
        self._installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- recording --------------------------------------------------------

    def _span_wrapper(self, name):
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        stack = self._stack
        name_of, parent, inp = self.name_of, self.parent, self.input
        start, end = self.start, self.end
        clock = time.perf_counter

        def make(orig):
            def traced(*args, **kwargs):
                idx = len(start)
                name_of.append(nid)
                parent.append(stack[-1] if stack else -1)
                inp.append(self.current_input)
                start.append(0.0)
                end.append(0.0)
                stack.append(idx)
                t0 = clock()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    start[idx] = t0
                    end[idx] = t1
                if hook is not None:
                    hook(self, result, args, kwargs)
                return result
            traced.__wrapped__ = orig
            traced.__name__ = getattr(orig, "__name__", name)
            return traced
        return make

    def _count_wrapper(self, name):
        counts = self.counts

        def make(orig):
            def counted(*args, **kwargs):
                counts[name] += 1
                return orig(*args, **kwargs)
            counted.__wrapped__ = orig
            counted.__name__ = getattr(orig, "__name__", name)
            return counted
        return make

    # -- results ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.start)

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per span name: summed self time (duration minus the time covered
        by direct child spans), summed inclusive time, and call count.
        Durations are multiplied by the `scale` of their root span (1 if
        none was set)."""
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        n = len(start)
        child = array("d", bytes(8 * n))
        weight = array("d", bytes(8 * n))
        for i, p in enumerate(parent):
            # a parent is opened, and so indexed, before its children
            weight[i] = self.scale.get(i, 1.0) if p < 0 else weight[p]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_t: dict = dict.fromkeys(self.names, 0.0)
        incl: dict = dict.fromkeys(self.names, 0.0)
        calls: dict = dict.fromkeys(self.names, 0)
        for i, nid in enumerate(name_of):
            name = self.names[nid]
            dur = end[i] - start[i]
            self_t[name] += (dur - child[i]) * weight[i]
            calls[name] += 1
            # a direct recursive call is already inside its caller's span
            p = parent[i]
            if p < 0 or name_of[p] != nid:
                incl[name] += dur * weight[i]
        return self_t, incl, calls

    def write(self, directory: Path) -> None:
        """Save the spans: one raw array file per field plus an index."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = {"name": self.name_of, "parent": self.parent,
                  "input": self.input, "start": self.start, "end": self.end}
        for field, arr in fields.items():
            with open(directory / f"{field}.bin", "wb") as fh:
                arr.tofile(fh)
        index = {"names": self.names, "count": self.span_count,
                 "fields": {f: a.typecode for f, a in fields.items()},
                 "byteorder": sys.byteorder, "counts": dict(self.counts)}
        (directory / "index.json").write_text(json.dumps(index, indent=1) + "\n")
