"""Quivers, paths, and path composition.

Composition is written right to left, in function order: the path "b*a"
means "a, then b", and a path alpha_n ... alpha_1 starts at the source of
alpha_1 and ends at the target of alpha_n.  Arrows may carry positive
integer degrees (all of them or none); a degree-tagged quiver induces a
grading on its path algebra.

`path_layer` grows the paths of each weight (the sum of their arrows'
degrees, or their length on an untagged quiver) as arrow-index words: a layer
is three parallel lists of start vertices, end vertices and words, a word
being the tuple of the indices in `Quiver.arrows` of a path's arrows, in
order of application, so walking a layer builds no `Path`.
`Quiver.path` and `word_labels` turn a word back into a `Path` or its
label, for what leaves the walk.
"""

from __future__ import annotations

from dataclasses import dataclass


class QuiverError(ValueError):
    """A malformed quiver or path; `arrow` names the arrow at fault, if one is."""

    def __init__(self, message, arrow=None):
        super().__init__(message)
        self.arrow = arrow


class CompositionError(QuiverError):
    """Endpoints of two paths do not match for composition."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str
    degree: int | None = None


class Quiver:
    """A finite quiver: ordered vertices and ordered arrows, named so that
    distinct paths have distinct labels (see `Path.label`)."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex names")
        for v in self.vertices:
            if "*" in v:
                raise QuiverError(f"vertex name {v!r} contains '*', which joins arrow names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate arrow names")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise QuiverError(f"arrow {a.name}: undeclared endpoint")
            if a.name.startswith("e_") and a.name[2:] in vset:
                raise QuiverError(f"arrow name {a.name!r} is the label of the stationary "
                                  f"path at vertex {a.name[2:]!r}", a.name)
        by_name = {a.name: a for a in self.arrows}
        for a in self.arrows:
            path = _path_labelled(a.name, by_name) if "*" in a.name else None
            if path:
                raise QuiverError(f"arrow name {a.name!r} is the label of the path "
                                  f"{' then '.join(reversed(path))} of other arrows",
                                  a.name)
        degs = [a.degree for a in self.arrows]
        if any(d is not None for d in degs):
            if any(d is None for d in degs):
                raise QuiverError("either all arrows carry a degree or none do")
            if any(d < 1 for d in degs):
                raise QuiverError("arrow degrees must be >= 1")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}

    @property
    def is_graded(self) -> bool:
        return bool(self.arrows) and self.arrows[0].degree is not None

    def arrow(self, name: str) -> Arrow:
        return self.arrows[self.arrow_index[name]]

    def path(self, start: str, word) -> "Path":
        """The path from `start` whose arrows have the indices `word`, in
        order of application (see `path_layer`)."""
        arrows = tuple(self.arrows[i] for i in word)
        return Path(start, arrows[-1].target if arrows else start, arrows)

    def word(self, path: "Path") -> tuple[int, ...]:
        """The arrow indices of `path`, in order of application."""
        return tuple(self.arrow_index[a.name] for a in path.arrows)

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


def _path_labelled(label: str, by_name: dict) -> list[str] | None:
    """The names, in label order, of a composable path of at least two of
    the arrows `by_name` whose label is `label`; None if there is none.

    The label is split at every '*' and the pieces are grouped from the
    right: `tails[i]` maps the target of the last applied arrow of a
    composable path labelled by pieces i.. to the names of one such path.  An arrow name
    may contain '*' itself, so a group may hold several pieces.
    """
    parts = label.split("*")
    n = len(parts)
    tails: list[dict] = [{} for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n + 1):
            a = by_name.get("*".join(parts[i:j]))
            if a is None or (i, j) == (0, n):
                continue
            if j == n:
                tails[i].setdefault(a.target, [a.name])
            elif a.source in tails[j]:
                tails[i].setdefault(a.target, [a.name] + tails[j][a.source])
    return next(iter(tails[0].values()), None)


@dataclass(frozen=True)
class Path:
    """A path in a quiver; `arrows` lists the arrows in order of application.

    The empty tuple gives the stationary path at `start` (= `end`).  For a
    nonempty path, start is the source of the first applied arrow and end
    the target of the last.
    """

    start: str
    end: str
    arrows: tuple[Arrow, ...] = ()

    def __post_init__(self):
        if self.arrows:
            if self.start != self.arrows[0].source:
                raise QuiverError("path start differs from source of its first arrow")
            if self.end != self.arrows[-1].target:
                raise QuiverError("path end differs from target of its last arrow")
            for prev, nxt in zip(self.arrows, self.arrows[1:]):
                if prev.target != nxt.source:
                    raise QuiverError(
                        f"arrows {prev.name} and {nxt.name} do not compose")
        elif self.start != self.end:
            raise QuiverError("stationary path must have start == end")

    @classmethod
    def stationary(cls, vertex: str) -> "Path":
        return cls(vertex, vertex)

    @property
    def length(self) -> int:
        return len(self.arrows)

    def weight(self) -> int:
        """Total degree: sum of arrow degrees, or length when untagged."""
        total = 0
        for a in self.arrows:
            total += a.degree if a.degree is not None else 1
        return total

    def label(self) -> str:
        if not self.arrows:
            return f"e_{self.start}"
        return "*".join(a.name for a in reversed(self.arrows))

    def __repr__(self):
        return f"Path({self.label()}: {self.start}->{self.end})"


def compose(later: Path, earlier: Path) -> Path:
    """The path "later after earlier"; defined when earlier ends where later starts."""
    if earlier.end != later.start:
        raise CompositionError(
            f"cannot compose: {later.label()} starts at {later.start}, "
            f"but {earlier.label()} ends at {earlier.end}")
    return Path(earlier.start, later.end, earlier.arrows + later.arrows)


# paths in one layer at most; past it the enumeration is abandoned
PATH_BUDGET = 20_000


class PathBudgetExceeded(RuntimeError):
    """A path layer holds more than PATH_BUDGET paths."""


def path_layer(quiver: Quiver, layers, w: int):
    """The paths of weight w, grown from the layers `layers[v]` of the
    smaller weights v.  An arrow weighs its degree, or 1 when the quiver is
    untagged, so the weight of a path of an untagged quiver is its length.

    A layer is three parallel lists (starts, ends, words): path k runs
    from vertex starts[k] to vertex ends[k] and its word, words[k], is the
    tuple of the indices in `quiver.arrows` of its arrows, in order of
    application.  Weight 0 holds the stationary paths, whose words are
    empty.  The paths p*a ("a first") are listed arrow-major, then in the
    order of layer w - |a|.  Returns the layer and, for each arrow a with
    |a| <= w, a triple (w - |a|, right, left): `right` maps the index of p
    in layer w - |a| to the index of p*a, `left` to the index of a*p, found
    by its word.  Raises PathBudgetExceeded past PATH_BUDGET.
    """
    if w == 0:
        return (list(quiver.vertices), list(quiver.vertices), [()] * len(quiver.vertices)), []
    starts, ends, words, grown = [], [], [], []
    for i, a in enumerate(quiver.arrows):
        v = w - (1 if a.degree is None else a.degree)
        if v < 0:
            continue
        below_starts, below_ends, below_words = layers[v]
        grow = [k for k, s in enumerate(below_starts) if s == a.target]
        right = dict(zip(grow, range(len(words), len(words) + len(grow))))
        starts += [a.source] * len(grow)
        ends += [below_ends[k] for k in grow]
        words += [(i,) + below_words[k] for k in grow]
        if len(words) > PATH_BUDGET:
            raise PathBudgetExceeded(
                f"more than {PATH_BUDGET} paths of weight {w}")
        grown.append((v, i, right))
    index = {word: k for k, word in enumerate(words)}
    return (starts, ends, words), [
        (v, right, {k: index[word + (i,)]
                    for k, (t, word) in enumerate(zip(layers[v][1], layers[v][2]))
                    if t == quiver.arrows[i].source})
        for v, i, right in grown]


def word_labels(quiver: Quiver, starts, words) -> list[str]:
    """The labels (see `Path.label`) of the paths with these start
    vertices and words, read without building the paths."""
    names = [a.name for a in quiver.arrows]
    return ["*".join([names[i] for i in reversed(word)]) if word else "e_" + s
            for s, word in zip(starts, words)]
