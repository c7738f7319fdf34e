"""Quivers, paths, and path composition.

Composition is written right to left, in function order: the path "b*a"
means "a, then b", and a path alpha_n ... alpha_1 starts at the source of
alpha_1 and ends at the target of alpha_n.  Arrows may carry positive
integer degrees (all of them or none); a degree-tagged quiver induces a
grading on its path algebra.
"""

from __future__ import annotations

from dataclasses import dataclass


class QuiverError(ValueError):
    pass


class CompositionError(QuiverError):
    """Endpoints of two paths do not match for composition."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str
    degree: int | None = None


class Quiver:
    """A finite quiver: ordered vertices and ordered arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate arrow names")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise QuiverError(f"arrow {a.name}: undeclared endpoint")
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

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


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

    @classmethod
    def of_arrow(cls, arrow: Arrow) -> "Path":
        return cls(arrow.source, arrow.target, (arrow,))

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def is_stationary(self) -> bool:
        return not self.arrows

    def weight(self, unit: int = 1) -> int:
        """Total degree: sum of arrow degrees, or length when untagged."""
        total = 0
        for a in self.arrows:
            total += a.degree if a.degree is not None else unit
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


def enumerate_paths(quiver: Quiver, max_length: int) -> list[Path]:
    """All paths of length <= max_length, ordered by length and then
    lexicographically by the index sequence of applied arrows."""
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    out = [Path.stationary(v) for v in quiver.vertices]
    layer = list(out)
    for _ in range(max_length):
        nxt = []
        for a in quiver.arrows:
            for p in layer:
                if p.start == a.target:
                    nxt.append(Path(a.source, p.end, (a,) + p.arrows))
        out.extend(nxt)
        layer = nxt
        if not layer:
            break
    return out


def paths_by_weight(quiver: Quiver, max_weight: int) -> dict[int, list[Path]]:
    """Paths grouped by total arrow degree (length for untagged quivers),
    for weights 0..max_weight; each group is ordered lexicographically by
    the index sequence of applied arrows.

    Used for weight-slice basis construction; weight 0 holds the
    stationary paths.
    """
    groups: dict[int, list[Path]] = {0: [Path.stationary(v) for v in quiver.vertices]}
    for w in range(1, max_weight + 1):
        groups[w] = []
    for w in range(1, max_weight + 1):
        bucket = groups[w]
        for a in quiver.arrows:
            da = a.degree if a.degree is not None else 1
            if da > w:
                continue
            for p in groups[w - da]:
                if p.start == a.target:
                    bucket.append(Path(a.source, p.end, (a,) + p.arrows))
    return groups
