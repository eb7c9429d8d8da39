"""Shared fixtures.

Coset tables are memoized per presentation text so the pile of tests
hitting the same handful of groups pays enumeration once; each table keeps
its relation lattice (relmod.relation_lattice), so that is built once too.
A test that spies on a build enumerates a fresh table.
"""

import functools
import json
import pathlib

import pytest

from qrlab.presentation import parse_presentation
from qrlab.enumeration import todd_coxeter
from qrlab import relmod
from qrlab.relmod import relation_lattice

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "qrlab" / "corpus"
# order-32 presentations of the benchmark's harness workload; read, never written
ORDER32_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench" / "inputs"
ORDER32 = ("q32.pres", "m32.pres")
NQR32 = pathlib.Path(__file__).resolve().parent / "data" / "nqr32.pres"
# order 64, H2 = 0, not QR at 2: the relation lattice peels 9 of its 65 chords
NQR64 = NQR32.parent / "nqr64.pres"
C9XC9 = "gens: a, b; relators: a^9, b^9, a*b*a^-1*b^-1; prime: 3"

P_GROUPS = [
    ("gens: a; relators: a^2; prime: 2", 2),
    ("gens: a; relators: a^4; prime: 2", 2),
    ("gens: a; relators: a^8; prime: 2", 2),
    ("gens: a; relators: a^9; prime: 3", 3),
    ("gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2", 2),
    ("gens: a, b; relators: a^3, b^3, a*b*a^-1*b^-1; prime: 3", 3),
    ("gens: a; relators: a^25; prime: 5", 5),
    ("gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2", 2),
    ("gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2", 2),
    ("gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2", 2),
    ("gens: a, b; relators: a^8, b^2, b*a*b^-1*a^-5; prime: 2", 2),
]


@functools.lru_cache(maxsize=None)
def _group(text):
    pres = parse_presentation(text)
    return pres, todd_coxeter(pres)


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


def level_one_inputs():
    """(id, text, p) for the level-1 oracles: every corpus entry of order
    > 1 at each prime where it is quasirational, whose level 1 has no
    p-torsion, and q32, m32, c64 and c81 (the benchmark's inputs)."""
    out = [(f"{e['id']}[{p}]", e["text"], p) for e in _corpus() for p in e["primes"]
           if e["expected"]["qr"][str(p)] and e["expected"]["order"] > 1]
    return out + [(name, (ORDER32_DIR / f"{name}.pres").read_text(), p)
                  for name, p in (("q32", 2), ("m32", 2), ("c64", 2), ("c81", 3))]


def ladder_inputs():
    """(id, text) for the dimension-subgroup and subgroup-lattice oracles:
    P_GROUPS, every corpus entry, the benchmark's inputs (read, never
    written), nqr32 and nqr243; each is run at the primes its text lists."""
    out = [(f"p_groups{i}", text) for i, (text, _) in enumerate(P_GROUPS)]
    out += [(e["id"], e["text"]) for e in _corpus()]
    paths = sorted(ORDER32_DIR.glob("*.pres")) + [NQR32, NQR32.parent / "nqr243.pres"]
    return out + [(path.stem, path.read_text()) for path in paths]


def spy_peel(monkeypatch):
    """Record (rows read, unresolved columns) of each relmod._peel call."""
    calls, orig = [], relmod._peel

    def peel(rows, width):
        read, residual = orig(rows, width)
        calls.append((len(read), residual))
        return read, residual

    monkeypatch.setattr(relmod, "_peel", peel)
    return calls


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
