"""Seeded presentation generators for the benchmark workloads.

Every generated input is a `.quiver` file text plus the facts the
generator knows about it without calling trivext: the dimension of A, the
hypotheses of the paper's theorem that hold for its family, and hence
whether `verdict --extend` must certify `HHdim T(A) = infinity`.

A seed only relabels vertices, picks primes, signs, scalars, degrees and
the random quivers; the family quotas and parameter grids are fixed, so
every seed gives a run of similar length.

The families, and why each is here:

* nakayama  cyclic Nakayama(n, L) is selfinjective in every characteristic,
            so T(A) must be certified; it exercises socles and the
            selfinjectivity search.
* radsq     random radical-square-zero quivers are graded by path length,
            so over Q the Cartan criterion must fire; over F_p only a
            one-vertex (local) quiver must be certified.
* square    a weighted commutative square is graded only by its arrow
            degrees (the shape of five_vertex_weighted); over Q the Cartan
            criterion must fire, over F_p "unknown" is also accepted.
* exterior  A_m = k<x_1..x_m>/(x_i^2, x_i x_j -/+ x_j x_i) is local, so
            T(A) must carry a 2-truncated cycle in every characteristic.
* corpus    the small bundled corpus presentations, over Q and over F_p,
            with the hypotheses the corpus records for them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial

# Primes used for the F_p copies.  p = 2 is left out so that the sign of a
# commutativity relation always matters.
PRIMES = (3, 5, 7, 11)

@dataclass(frozen=True)
class Case:
    """One generated input and what the generator knows about it."""

    id: str
    family: str
    text: str
    dim_a: int
    characteristic: int
    local: bool
    graded: bool
    selfinjective: bool | None    # None: not derived by the generator
    hh_degree: int | None = None  # --hh-check N for corroborate inputs

    @property
    def must_certify(self) -> bool:
        """The paper's theorem: local, selfinjective, or graded over a
        field of characteristic zero forces HHdim T(A) = infinity."""
        return (self.local or self.selfinjective is True
                or (self.graded and self.characteristic == 0))

    @property
    def accepted_exits(self) -> tuple[int, ...]:
        return (0,) if self.must_certify else (0, 3)


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """Random names in increasing order: the program processes vertices in
    name order, and a relabelling that permuted that order would change
    the cost of an input from seed to seed."""
    picks = sorted(rng.sample(range(10, 100), count))
    return [f"{prefix}{k}" for k in picks]


def _field_line(p: int) -> str:
    return "field Q" if p == 0 else f"field F {p}"


def _text(p, vertices, arrows, relations) -> str:
    lines = [_field_line(p), "vertices " + " ".join(vertices)]
    for name, src, tgt, deg in arrows:
        tail = f" deg {deg}" if deg is not None else ""
        lines.append(f"arrow {name} : {src} -> {tgt}{tail}")
    lines += [f"relation {r}" for r in relations]
    return "\n".join(lines) + "\n"


def nakayama(rng, n: int, L: int, p: int, cid: str) -> Case:
    """Cyclic quiver on n vertices modulo all paths of length L."""
    vs = _names(rng, "v", n)
    arrows = [(f"a{i}", vs[i], vs[(i + 1) % n], None) for i in range(n)]
    rels = []
    for i in range(n):
        path = [f"a{(i + k) % n}" for k in range(L)]
        rels.append("*".join(reversed(path)))
    return Case(cid, "nakayama", _text(p, vs, arrows, rels), dim_a=n * L,
                characteristic=p, local=(n == 1), graded=True,
                selfinjective=True)


def radsq(rng, r: int, m: int, p: int, cid: str) -> Case:
    """Random quiver with r vertices and m arrows modulo all paths of
    length 2.  With more than one vertex, a vertex carries at most one
    loop: loops multiply the paths of the extension, and with them the
    cost of `present`, so unbounded loops would make the run length depend
    on the seed."""
    max_loops = m if r == 1 else 1
    vs = _names(rng, "v", r)
    arrows = []
    loops = dict.fromkeys(vs, 0)
    while len(arrows) < m:
        src, tgt = rng.choice(vs), rng.choice(vs)
        if src == tgt:
            if loops[src] == max_loops:
                continue
            loops[src] += 1
        arrows.append((f"b{len(arrows)}", src, tgt, None))
    rels = [f"{b[0]}*{a[0]}" for a in arrows for b in arrows if a[2] == b[1]]
    return Case(cid, "radsq", _text(p, vs, arrows, rels), dim_a=r + m,
                characteristic=p, local=(r == 1), graded=True,
                selfinjective=None)


def _composition(rng, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def square(rng, l1: int, l2: int, p: int, cid: str) -> Case:
    """Two parallel paths of lengths l1, l2 with arrow degrees of equal
    total weight, made to commute up to a nonzero scalar."""
    nv = 2 + (l1 - 1) + (l2 - 1)
    vs = _names(rng, "v", nv)
    s, t = vs[0], vs[1]
    inner1, inner2 = vs[2:1 + l1], vs[1 + l1:]
    weight = rng.randint(max(l1, l2) + 1, 7)
    arrows = []
    paths = []
    for tag, inner, length in (("c", inner1, l1), ("d", inner2, l2)):
        stops = [s] + inner + [t]
        degs = _composition(rng, weight, length)
        names = [f"{tag}{k}" for k in range(length)]
        arrows += [(names[k], stops[k], stops[k + 1], degs[k])
                   for k in range(length)]
        paths.append("*".join(reversed(names)))
    scalar = rng.randint(1, (p - 1) if p else 4)
    coeff = "" if scalar == 1 else f"{scalar}*"
    rels = [f"{paths[0]} - {coeff}{paths[1]}"]
    dim = nv + l1 * (l1 + 1) // 2 + l2 * (l2 + 1) // 2 - 1
    return Case(cid, "square", _text(p, vs, arrows, rels), dim_a=dim,
                characteristic=p, local=False, graded=True,
                selfinjective=None)


def exterior(rng, m: int, p: int, cid: str) -> Case:
    """One vertex, loops x_1..x_m, x_i^2 = 0 and x_i x_j = +/- x_j x_i."""
    v = _names(rng, "v", 1)[0]
    xs = [f"x{i}" for i in range(1, m + 1)]
    sign = rng.choice("+-")
    rels = [f"{x}*{x}" for x in xs]
    rels += [f"{xs[i]}*{xs[j]} {sign} {xs[j]}*{xs[i]}"
             for i in range(m) for j in range(i + 1, m)]
    arrows = [(x, v, v, None) for x in xs]
    return Case(cid, "exterior", _text(p, [v], arrows, rels), dim_a=2 ** m,
                characteristic=p, local=True, graded=True, selfinjective=None)


# Bundled corpus entries small enough for the oracle: name -> (dim A,
# local, selfinjective).  All are graded by path length.
CORPUS_SMALL = {
    "semisimple_k": (1, True, True),
    "semisimple_k2": (2, False, True),
    "dual_numbers": (2, True, True),
    "local_two_loops": (3, True, False),
    "path_a2": (3, False, False),
}


def corpus_case(rng, name: str, p: int, cid: str, *, texts: dict) -> Case:
    """A bundled corpus presentation (`texts[name]`) over the field p."""
    dim, local, selfinj = CORPUS_SMALL[name]
    text = texts[name]
    lines = [(_field_line(p) if ln.startswith("field ") else ln)
             for ln in text.splitlines()]
    return Case(cid, "corpus", "\n".join(lines) + "\n", dim_a=dim,
                characteristic=p, local=local, graded=True,
                selfinjective=selfinj)


# ---------------------------------------------------------------------------
# workloads: fixed shape grids and quotas, seeded labels and fields

NAKAYAMA_SHAPES = [(n, L) for n in range(1, 7) for L in range(2, 5)]
RADSQ_SHAPES = [(r, m) for r in range(1, 6) for m in (r, r + 1)]
SQUARE_SHAPES = [(l1, l2) for l1 in (2, 3) for l2 in (2, 3)]
FP_EVERY = 4   # every fourth input of a family is over F_p


def _family_cases(rng, gen, shapes, count, prefix):
    """`count` cases of generator `gen`, cycling through `shapes`."""
    out = []
    for k in range(count):
        p = rng.choice(PRIMES) if k % FP_EVERY == FP_EVERY - 1 else 0
        out.append(gen(rng, *shapes[k % len(shapes)], p, f"{prefix}{k:03d}"))
    return out


def certify_cases(rng):
    """150 inputs."""
    return (_family_cases(rng, nakayama, NAKAYAMA_SHAPES, 36, "nak")
            + _family_cases(rng, radsq, RADSQ_SHAPES, 50, "rsq")
            + _family_cases(rng, square, SQUARE_SHAPES, 36, "sq")
            + _family_cases(rng, exterior, [(1,), (2,), (3,)], 28, "ext"))


def present_cases(rng):
    """104 inputs.  `relations_up_to` grows quickly with the number of
    paths in T(A), so Nakayama stays at n*L <= 12 and A_3 is left out (its
    relations take 30 s over Q and seconds over F_p).  The cost of a random
    quiver's extension varies severalfold with its shape, so many small
    random quivers (r <= 3) stand in for a few large ones, and the latency
    quantiles do not hinge on the seed."""
    nak = [s for s in NAKAYAMA_SHAPES if s[0] * s[1] <= 12]
    small = [s for s in RADSQ_SHAPES if s[0] <= 3]
    return (_family_cases(rng, nakayama, nak, 20, "nak")
            + _family_cases(rng, radsq, small, 60, "rsq")
            + _family_cases(rng, square, SQUARE_SHAPES, 12, "sq")
            + _family_cases(rng, exterior, [(1,), (2,)], 12, "ext"))


# Σ_{n=1}^{N+1} dim C_n over the normalized bar complex of T(A) allowed per
# corroborate input; it is also the tuple cap, so no input hits the cap.
HH_TUPLE_BUDGET = 16_000
HH_DEGREES = range(3, 7)


def hh_tuples(dim_t: int, n_max: int) -> int:
    """Tuples in the chain modules C_1..C_{N+1} that hh_dims(T, N) ranks."""
    return sum(dim_t * (dim_t - 1) ** k for k in range(1, n_max + 2))


# Shapes with dim A <= 3, so dim T(A) <= 6: the budget admits N = 3..6 at
# dim T(A) = 4 and N = 3 at dim T(A) = 6.
CORROBORATE_SHAPES = (
    [(nakayama, s) for s in ((1, 2), (1, 3))]
    + [(radsq, s) for s in ((1, 1), (1, 2), (2, 1))]
    + [(exterior, (1,))]
    + [(corpus_case, (name,)) for name in CORPUS_SMALL])


def corroborate_cases(rng, corpus_texts: dict):
    """Every shape above, over Q and over F_p, at every degree
    N in 3..6 whose chain modules fit HH_TUPLE_BUDGET: a ladder of costs
    rather than a few clusters, so the latency quantiles are stable."""
    out = []
    for p_kind in (0, 1):
        for gen, shape in CORROBORATE_SHAPES:
            p = rng.choice(PRIMES) if p_kind else 0
            if gen is corpus_case:
                gen = partial(corpus_case, texts=corpus_texts)
            case = gen(rng, *shape, p, "")
            for n in HH_DEGREES:
                if hh_tuples(2 * case.dim_a, n) <= HH_TUPLE_BUDGET:
                    out.append(replace(case, id=f"hh{len(out):03d}",
                                       hh_degree=n))
    return out


WORKLOADS = ("certify", "corroborate", "present")


def workload_cases(name: str, seed: int, corpus_texts: dict) -> list[Case]:
    """The inputs of one workload; the same seed gives the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "certify":
        return certify_cases(rng)
    if name == "present":
        return present_cases(rng)
    if name == "corroborate":
        return corroborate_cases(rng, corpus_texts)
    raise ValueError(f"unknown workload {name!r}")
