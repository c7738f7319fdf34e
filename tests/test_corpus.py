"""The bundled corpus battery and its negative controls."""

import copy
from collections import Counter

import trivext.corpus
import trivext.criteria
from trivext.algebra import build_algebra
from trivext.corpus import (CORPUS, corpus_text, negative_control_checks,
                            run_corpus)
from trivext.dsl import parse_presentation


def test_every_entry_passes(corpus_result):
    assert corpus_result["ok"], [
        (e["name"], {k: v for k, v in e["checks"].items() if not bool(v)})
        for e in corpus_result["entries"] if not e["ok"]]


def test_entry_names_are_stable():
    assert [e.name for e in CORPUS] == [
        "semisimple_k", "dual_numbers", "local_two_loops", "semisimple_k2",
        "nakayama_cycle_2", "nakayama_cycle_3", "path_a2",
        "five_vertex_weighted"]


def test_negative_controls(algebras, extensions):
    res = negative_control_checks(algebras["semisimple_k"], extensions["path_a2"])
    assert res["ok"], res


def test_injected_wrong_structure_constant_breaks_associativity():
    # tampering with one product of the cyclic Nakayama algebra must be
    # caught by the associativity check
    A = build_algebra(parse_presentation(corpus_text("nakayama_cycle_2")))
    assert A.check_associativity()
    a = A.basis_labels.index("a")
    b = A.basis_labels.index("b")
    broken = copy.deepcopy(A)
    broken.table[a][b] = {a: A.field.one()}  # a*b should be zero
    assert not broken.check_associativity()


def test_corpus_checks_record_hh_dims(corpus_result):
    rec = corpus_result["entries"][1]
    assert rec["name"] == "dual_numbers"
    assert rec["checks"]["hh_corroboration"]
    assert dict(rec["hh_dims"])[0] == 4  # HH_0 of the 4-dim extension


def test_every_extension_is_corroborated(corpus_result):
    # no dimension limit: every T(A) and every double extension is ranked
    # through degree 4 on the E-relative bar complex
    entries = {e["name"]: e for e in corpus_result["entries"]}
    for entry in CORPUS:
        rec = entries[entry.name]
        assert [n for n, _ in rec["hh_dims"]] == [0, 1, 2, 3, 4], entry.name
        assert rec["checks"]["hh_corroboration"], entry.name
        if entry.double_extension:
            assert rec["checks"]["double_extension_hh_corroboration"], entry.name
    assert dict(entries["nakayama_cycle_3"]["hh_dims"]) == {0: 4, 1: 2, 2: 3, 3: 2, 4: 1}
    # HH_2 = HH_3 = 0 do not count against HHdim = infinity; HH_4 = 1 does
    assert dict(entries["five_vertex_weighted"]["hh_dims"]) == {0: 6, 1: 1, 2: 0, 3: 0, 4: 1}


def test_corpus_builds_each_extension_once(monkeypatch):
    # the checks of an entry and its verdict share one T(A), which the
    # path_a2 negative control reuses; a double extension builds T(T(A))
    # once more
    built = Counter()
    build = trivext.corpus.trivial_extension

    def counting(A, **kwargs):
        built[A.label] += 1
        return build(A, **kwargs)

    monkeypatch.setattr(trivext.corpus, "trivial_extension", counting)
    monkeypatch.setattr(trivext.criteria, "trivial_extension", counting)
    assert run_corpus()["ok"]
    expected = Counter(e.name for e in CORPUS)
    expected.update(f"T({e.name})" for e in CORPUS if e.double_extension)
    assert built == expected


def test_corpus_builds_each_algebra_once(monkeypatch):
    # the negative controls reuse the semisimple_k entry's algebra
    built = Counter()
    build = trivext.corpus.build_algebra

    def counting(pres, **kwargs):
        built[kwargs.get("label")] += 1
        return build(pres, **kwargs)

    monkeypatch.setattr(trivext.corpus, "build_algebra", counting)
    assert run_corpus()["ok"]
    assert built == Counter(e.name for e in CORPUS)
