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
NQR32 = pathlib.Path(__file__).resolve().parent / "data" / "nqr32.pres"
C9XC9 = "gens: a, b; relators: a^9, b^9, a*b*a^-1*b^-1; prime: 3"


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


def walk_inputs():
    """(id, text, p) for the tower walk's oracles: every corpus entry at
    each of its primes, nqr32, the order-32 inputs, and C9 x C9 at p = 3,
    whose level 1 carries torsion that no deeper level shows."""
    out = [(f"{e['id']}[{p}]", e["text"], p) for e in _corpus() for p in e["primes"]]
    out += [(path.stem, path.read_text(), 2)
             for path in [NQR32] + [ORDER32_DIR / n for n in ORDER32]]
    return out + [("c9xc9", C9XC9, 3)]


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
