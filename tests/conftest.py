import pytest

from trivext.algebra import build_algebra
from trivext.corpus import CORPUS, corpus_text, run_corpus
from trivext.dsl import parse_presentation
from trivext.trivial_extension import trivial_extension


@pytest.fixture(scope="session")
def presentations():
    return {e.name: parse_presentation(corpus_text(e.name)) for e in CORPUS}


@pytest.fixture(scope="session")
def algebras(presentations):
    return {name: build_algebra(p, label=name) for name, p in presentations.items()}


@pytest.fixture(scope="session")
def extensions(algebras):
    return {name: trivial_extension(A) for name, A in algebras.items()}


@pytest.fixture(scope="session")
def corpus_result():
    """The corpus battery, run once per test session."""
    return run_corpus()
