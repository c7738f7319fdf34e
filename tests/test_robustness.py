"""Malformed input: token-level mutations of the corpus texts must give a
report or a clean error, never a traceback."""

import random
import re

from trivext.cli import main
from trivext.corpus import CORPUS, corpus_text

# tokens a mutation may put in place of another
POOL = ("0", "1", "2", "3", "7", "00", "deg", "->", ":", "*", "+", "-", "/",
        "x", "v", "Q", "F", "4", "field", "vertices", "arrow", "relation",
        "nilpotency_bound", "#")
TOKEN = re.compile(r"\w+|->|\S")
EXIT_CODES = {0, 2, 3, 4}


def corpus_lines(name):
    """The declarations of a corpus text as token lists; relations are split
    at '*', '+' and '-', which the parser reads with or without spaces."""
    return [TOKEN.findall(line) for line in corpus_text(name).splitlines()
            if line.strip() and not line.startswith("#")]


def mutate(rng, lines):
    """One or two token or line edits of a copy of `lines`.  Most edits put
    a token of the same kind from the text itself in place of another (a
    name for a name, a number for a number), so many mutants still parse
    and reach the algebra builder."""
    lines = [list(line) for line in lines]
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(lines))
        line, op = lines[i], rng.random()
        if op < 0.1:
            lines.insert(i, list(line))
        elif op < 0.3 and len(lines) > 1:
            del lines[i]
        else:
            j = rng.randrange(len(line))
            if op < 0.75:
                kin = [t for other in lines for t in other
                       if t[0].isdigit() == line[j][0].isdigit()
                       and t[0].isalnum() == line[j][0].isalnum()]
                line[j] = rng.choice(kin)
            elif op < 0.9:
                line[j] = rng.choice(POOL)
            else:
                del line[j]
    return lines


def mutate_degree(rng, lines):
    """The five-vertex text with one or two arrow degrees changed."""
    lines = [list(line) for line in lines]
    degree_slots = [(i, j + 1) for i, line in enumerate(lines)
                    for j, tok in enumerate(line[:-1]) if tok == "deg"]
    for i, j in rng.sample(degree_slots, rng.randint(1, 2)):
        lines[i][j] = rng.choice(("0", "1", "2", "4", "6", "00", "x", "-1"))
    return lines


def test_mutated_corpus_texts_exit_cleanly(tmp_path, capsys):
    rng = random.Random(20150923)
    five = corpus_lines("five_vertex_weighted")
    texts = [[["field", "Q"], ["vertices", "v"],
              ["arrow", "x", ":", "v", "->", "v", "deg", "0"]]]
    names = [e.name for e in CORPUS]
    while len(texts) < 320:
        # the five-vertex text carries the only degree tokens of the corpus
        name = rng.choice(names + ["five_vertex_weighted"] * 3)
        if name == "five_vertex_weighted" and rng.random() < 0.5:
            texts.append(mutate_degree(rng, five))
        else:
            texts.append(mutate(rng, corpus_lines(name)))
    f = tmp_path / "mutant.quiver"
    crashes, codes = [], set()
    for lines in texts:
        text = "\n".join(" ".join(line) for line in lines) + "\n"
        f.write_text(text)
        for argv in (["info", str(f)], ["verdict", str(f), "--extend"]):
            try:
                code = main(argv)
            except Exception as exc:  # reported below, with its input
                crashes.append((argv[0], text, repr(exc)))
                continue
            capsys.readouterr()
            codes.add(code)
            assert code in EXIT_CODES, (argv[0], text, code)
    assert not crashes, crashes[:3]
    # mutants reach the reports and the path budget, not only parse errors
    assert {0, 2, 4} <= codes, codes
