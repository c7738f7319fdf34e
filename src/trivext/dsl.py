"""The textual presentation language for quivers with relations.

One declaration per line; '#' starts a comment.  The grammar:

    field Q            | field F <prime>
    vertices <name> <name> ...
    arrow <name> : <src> -> <tgt> [deg <d>]
    relation <expr>
    nilpotency_bound <N>

with  expr := term (('+'|'-') term)*,  term := [coeff '*'] path,
path := arrow ('*' arrow)* and coeff := integer | integer '/' integer.
Paths are written left-factor-first in function order: "b*a" means
"a, then b".  Arrow and vertex names are free-form identifiers; vertex
names may also be bare integers, arrow names may not (they would be
ambiguous with coefficients).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .linalg import QQ, GF, GroundField
from .quiver import Arrow, Path, Quiver, QuiverError


class DSLError(ValueError):
    """Parse or validation failure, carrying a 1-based line/column position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}" + (f", column {col}" if col is not None else "")
            where = f" ({where})"
        super().__init__(f"{message}{where}")


@dataclass(frozen=True)
class RelationExpr:
    """A k-linear combination of parallel paths of length >= 2."""

    terms: tuple  # of (scalar, Path)

    def __post_init__(self):
        if not self.terms:
            raise DSLError("empty relation")
        starts = {p.start for _, p in self.terms}
        ends = {p.end for _, p in self.terms}
        if len(starts) > 1 or len(ends) > 1:
            raise DSLError("relation terms are not parallel paths")
        for _, p in self.terms:
            if p.length < 2:
                raise DSLError(
                    f"relation term {p.label()} has length {p.length} < 2 "
                    "(relations must lie in the square of the arrow ideal)")
        labels = [p.label() for _, p in self.terms]
        if len(set(labels)) != len(labels):
            raise DSLError("duplicate path among relation terms")

    @property
    def start(self) -> str:
        return self.terms[0][1].start

    @property
    def end(self) -> str:
        return self.terms[0][1].end

    def weights(self) -> set[int]:
        return {p.weight() for _, p in self.terms}

    def label(self) -> str:
        return _expr_text(self.terms)


@dataclass(frozen=True)
class Presentation:
    """A quiver, a ground field, relations, and an optional nilpotency bound."""

    quiver: Quiver
    field: GroundField = dc_field(default_factory=lambda: QQ)
    relations: tuple = ()
    nilpotency_bound: int | None = None

    def __post_init__(self):
        for rel in self.relations:
            for c, _ in rel.terms:
                if self.field.coerce(c) != c:
                    raise DSLError("relation coefficient does not lie in the ground field")
        if self.nilpotency_bound is not None and self.nilpotency_bound < 1:
            raise DSLError("nilpotency_bound must be a positive integer")


_NAME_RE = re.compile(r"[^\W\d]\w*", re.UNICODE)
_TOKEN_RE = re.compile(r"\s*(\d+|[^\W\d]\w*|[*+\-/])", re.UNICODE)


def _tokenize_expr(text, line_no, col_offset):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise DSLError(f"unexpected character {stripped[0]!r}",
                           line_no, col_offset + len(text) - len(stripped) + 1)
        tokens.append((m.group(1), col_offset + m.start(1) + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive-descent parser for relation expressions.  Past the last
    token it reads (None, end_col), the column just after the expression,
    where an error about a missing token points."""

    def __init__(self, tokens, line_no, quiver, field, end_col):
        self.tokens = tokens
        self.i = 0
        self.line = line_no
        self.quiver = quiver
        self.field = field
        self.end_col = end_col

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, self.end_col)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def fail(self, msg, col=None):
        raise DSLError(msg, self.line, col)

    def parse(self) -> RelationExpr:
        terms = [self.term(self.field.one())]
        while True:
            tok, col = self.peek()
            if tok is None:
                break
            if tok not in "+-":
                self.fail(f"expected '+' or '-', got {tok!r}", col)
            self.next()
            sign = self.field.one() if tok == "+" else self.field.neg(self.field.one())
            terms.append(self.term(sign))
        return RelationExpr(tuple(terms))

    def term(self, sign):
        coeff = self.field.one()
        tok, col = self.peek()
        if tok is None:
            self.fail("expected a term", col)
        if tok.isdigit():
            coeff = self.coefficient()
            star, star_col = self.next()
            if star != "*":
                self.fail("expected '*' after coefficient", star_col)
        coeff = self.field.mul(sign, coeff)
        if self.field.is_zero(coeff):
            self.fail("relation coefficient vanishes in the ground field", col)
        path = self.path()
        return (coeff, path)

    def coefficient(self):
        num = int(self.next()[0])
        nxt, _ = self.peek()
        if nxt == "/":
            self.next()
            den_tok, den_col = self.next()
            if den_tok is None or not den_tok.isdigit():
                self.fail("expected denominator after '/'", den_col)
            den = int(den_tok)
            if den == 0:
                self.fail("zero denominator", den_col)
            value = Fraction(num, den)
            p = self.field.characteristic
            if p and value.denominator % p == 0:
                self.fail(f"denominator of {num}/{den} is not invertible in "
                          f"F {p}", den_col)
            return self.field.coerce(value)
        return self.field.coerce(num)

    def path(self) -> Path:
        factors = [self.arrow()]
        while self.peek()[0] == "*":
            self.next()
            factors.append(self.arrow())
        factors.reverse()  # written function-order: rightmost factor applies first
        for (prev, _), (nxt, col) in zip(factors, factors[1:]):
            if prev.target != nxt.source:
                self.fail(f"path is not composable: {prev.name} ends at "
                          f"{prev.target}, {nxt.name} starts at {nxt.source}", col)
        arrows = tuple(a for a, _ in factors)
        return Path(arrows[0].source, arrows[-1].target, arrows)

    def arrow(self) -> tuple[Arrow, int]:
        tok, col = self.next()
        if tok is None:
            self.fail("expected an arrow name", col)
        if not _NAME_RE.fullmatch(tok):
            self.fail(f"expected an arrow name, got {tok!r}", col)
        if tok not in self.quiver.arrow_index:
            self.fail(f"unknown arrow {tok!r}", col)
        return self.quiver.arrow(tok), col


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation language into a Presentation."""
    field = None
    vertices: list[str] = []
    arrows: list[Arrow] = []
    arrow_lines: list[int] = []
    relation_lines: list[tuple[int, str]] = []
    bound = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split(None, 1)
        keyword, rest = words[0], (words[1] if len(words) > 1 else "")
        if keyword == "field":
            if field is not None:
                raise DSLError("field declared twice", line_no)
            parts = rest.split()
            if parts == ["Q"]:
                field = QQ
            elif len(parts) == 2 and parts[0] == "F" and parts[1].isdigit():
                try:
                    field = GF(int(parts[1]))
                except ValueError as exc:
                    raise DSLError(str(exc), line_no) from None
            else:
                raise DSLError(f"bad field declaration {rest!r} "
                               "(expected 'Q' or 'F <prime>')", line_no)
        elif keyword == "vertices":
            names = rest.split()
            if not names:
                raise DSLError("'vertices' needs at least one name", line_no)
            for v in names:
                if v in vertices:
                    raise DSLError(f"duplicate vertex {v!r}", line_no)
                if "*" in v:
                    raise DSLError(f"bad vertex name {v!r} (must not contain '*', "
                                   "which joins the arrows of a path label)", line_no)
                vertices.append(v)
        elif keyword == "arrow":
            m = re.fullmatch(r"(\S+)\s*:\s*(\S+)\s*->\s*(\S+)(?:\s+deg\s+(\d+))?", rest)
            if not m:
                raise DSLError("bad arrow declaration (expected "
                               "'arrow <name> : <src> -> <tgt> [deg <d>]')", line_no)
            name, src, tgt, deg = m.groups()
            if not _NAME_RE.fullmatch(name):
                raise DSLError(f"bad arrow name {name!r} (must be an identifier, "
                               "not a number)", line_no)
            if any(a.name == name for a in arrows):
                raise DSLError(f"duplicate arrow {name!r}", line_no)
            for v in (src, tgt):
                if v not in vertices:
                    raise DSLError(f"unknown vertex {v!r}", line_no)
            if deg and int(deg) < 1:
                raise DSLError("arrow degrees must be >= 1", line_no)
            arrows.append(Arrow(name, src, tgt, int(deg) if deg else None))
            arrow_lines.append(line_no)
        elif keyword == "relation":
            if not rest:
                raise DSLError("empty relation", line_no)
            # columns count from the start of the raw line
            relation_lines.append((line_no, rest, len(raw) - len(raw.lstrip())
                                   + len(line) - len(rest)))
        elif keyword == "nilpotency_bound":
            if bound is not None:
                raise DSLError("nilpotency_bound declared twice", line_no)
            if not rest.isdigit() or int(rest) < 1:
                raise DSLError("nilpotency_bound must be a positive integer", line_no)
            bound = int(rest)
        else:
            raise DSLError(f"unknown declaration {keyword!r}", line_no)

    if field is None:
        field = QQ
    degs = [a.degree for a in arrows]
    if any(d is not None for d in degs) and any(d is None for d in degs):
        raise DSLError("partial degree assignment: either all arrows carry "
                       "'deg' or none do")
    try:
        quiver = Quiver(vertices, arrows)
    except QuiverError as exc:  # an arrow named e_v, declared before or after v
        line_no = next((n for a, n in zip(arrows, arrow_lines) if a.name == exc.arrow), None)
        raise DSLError(exc.args[0], line_no) from None

    relations = []
    for line_no, expr_text, col_offset in relation_lines:
        tokens = _tokenize_expr(expr_text, line_no, col_offset)
        parser = _ExprParser(tokens, line_no, quiver, field,
                             col_offset + len(expr_text) + 1)
        try:
            relations.append(parser.parse())
        except DSLError as exc:
            if exc.line is not None:
                raise
            # raised by RelationExpr, which knows no position: name the
            # relation's line and the column where its expression starts
            raise DSLError(exc.args[0], line_no, col_offset + 1) from None
    return Presentation(quiver=quiver, field=field, relations=tuple(relations),
                        nilpotency_bound=bound)


def _expr_text(terms) -> str:
    parts = []
    for i, (c, p) in enumerate(terms):
        neg = isinstance(c, (int, Fraction)) and c < 0
        mag = -c if neg else c
        body = p.label() if mag == 1 else f"{mag}*{p.label()}"
        if i == 0:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def serialize_presentation(p: Presentation) -> str:
    """Canonical text for a Presentation; parsing it back gives equal data."""
    lines = []
    f = p.field
    lines.append("field Q" if f.characteristic == 0 else f"field F {f.characteristic}")
    if p.quiver.vertices:
        lines.append("vertices " + " ".join(p.quiver.vertices))
    for a in p.quiver.arrows:
        deg = f" deg {a.degree}" if a.degree is not None else ""
        lines.append(f"arrow {a.name} : {a.source} -> {a.target}{deg}")
    for rel in p.relations:
        lines.append("relation " + _expr_text(rel.terms))
    if p.nilpotency_bound is not None:
        lines.append(f"nilpotency_bound {p.nilpotency_bound}")
    return "\n".join(lines) + "\n"
