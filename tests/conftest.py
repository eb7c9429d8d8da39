"""Shared fixtures.

Coset tables and relation lattices are memoized per presentation text so the
pile of tests hitting the same handful of groups pays enumeration once.
"""

import functools
import json
import pathlib

import pytest

from qrlab.presentation import parse_presentation
from qrlab.enumeration import todd_coxeter
from qrlab.relmod import relation_lattice

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "qrlab" / "corpus"
# order-32 presentations of the benchmark's harness workload; read, never written
ORDER32_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench" / "inputs"
ORDER32 = ("q32.pres", "m32.pres")


@functools.lru_cache(maxsize=None)
def _group(text):
    pres = parse_presentation(text)
    return pres, todd_coxeter(pres)


@functools.lru_cache(maxsize=None)
def _lattice(text):
    pres, tbl = _group(text)
    return relation_lattice(pres, tbl)


@functools.lru_cache(maxsize=None)
def _corpus():
    doc = json.loads((CORPUS_DIR / "corpus.json").read_text())
    out = []
    for entry in doc["entries"]:
        entry = dict(entry)
        entry["text"] = (CORPUS_DIR / entry["file"]).read_text()
        out.append(entry)
    return tuple(out)


@pytest.fixture(scope="session")
def group():
    """Callable: presentation text -> (Presentation, FiniteGroupTable), cached."""
    return _group


@pytest.fixture(scope="session")
def lattice():
    """Callable: presentation text -> RelationLattice, cached."""
    return _lattice


@pytest.fixture(scope="session")
def corpus():
    """Bundled corpus entries with their presentation text attached."""
    return _corpus()


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS_DIR
