"""The one pipeline: what `check` prints, and how often it builds each invariant.

The golden files in tests/data/check/ are `qrlab check FILE` output (no
--timing) for the bundled presentations, with the "file" value replaced by
the file name; every level table, multiplicity and harness ring is pinned.
tests/data/check32/ holds the same for the two order-32 benchmark inputs,
which the bundled corpus never reaches, and for tests/data/nqr32.pres, an
order-32 group with H2(G) = 0 that is not quasirational at 2.
"""

import json
import pathlib
import sys
from collections import Counter

import pytest

import qrlab.enumeration
import qrlab.groupring
import qrlab.relmod
from qrlab.analysis import analyze
from qrlab.cli import main
from qrlab.enumeration import todd_coxeter
from qrlab.errors import BudgetExceeded
from qrlab.intlinalg import Lattice
from qrlab.presentation import parse_presentation
from qrlab.relmod import relation_lattice

from conftest import CORPUS_DIR, NQR64, ORDER32, ORDER32_DIR, spy_peel

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "data" / "check"
GOLDEN32_DIR = GOLDEN_DIR.parent / "check32"
NQR32 = GOLDEN_DIR.parent / "nqr32.pres"
BUNDLED = sorted(p.name for p in CORPUS_DIR.glob("*.pres"))


def check_output(capsys, path):
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    return code, out.replace(json.dumps(str(path)), json.dumps(path.name))


@pytest.mark.parametrize("name", BUNDLED)
def test_check_matches_golden_output(capsys, name):
    code, out = check_output(capsys, CORPUS_DIR / name)
    assert code == 0
    assert out == (GOLDEN_DIR / name.replace(".pres", ".json")).read_text()


@pytest.mark.parametrize("name", ORDER32)
def test_check_matches_golden_output_at_order_32(capsys, name):
    code, out = check_output(capsys, ORDER32_DIR / name)
    assert code == 0
    assert out == (GOLDEN32_DIR / name.replace(".pres", ".json")).read_text()


def test_check_reports_a_group_with_trivial_multiplier_as_not_quasirational(capsys):
    """Level 2 carries H2(D_2) = Z/2 while H2(G) = 0: check exits 0 with the
    witness level, instead of failing a consistency check that assumed
    torsion-free R/[R,F] meant quasirational."""
    code, out = check_output(capsys, NQR32)
    assert code == 0
    assert out == (GOLDEN32_DIR / "nqr32.json").read_text()
    doc = json.loads(out)
    assert doc["h2"]["hopf"]["torsion"] == [] and doc["harness"] == {}
    assert doc["qr"]["2"]["quasirational"] is False and doc["qr"]["2"]["witness_level"] == 2


def test_golden_files_cover_the_bundled_corpus():
    assert len(BUNDLED) == 13
    assert sorted(p.name for p in GOLDEN_DIR.glob("*.json")) == \
        sorted(n.replace(".pres", ".json") for n in BUNDLED)


COUNTED = (
    (qrlab.relmod, "relation_lattice"),
    (qrlab.relmod, "coinvariants"),
    (qrlab.groupring, "dimension_subgroup_chain"),
    (qrlab.groupring, "jennings_series"),
    (qrlab.enumeration, "quotient_table"),
    (qrlab.permrec, "module_from_coinvariants"),
)


def count_calls(monkeypatch, counted=COUNTED) -> Counter:
    """Count calls to each counted function under every qrlab name bound to it."""
    counts: Counter = Counter()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "qrlab" or n.startswith("qrlab."))]
    for home, name in counted:
        orig = getattr(home, name)

        def wrapper(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, wrapper)
    return counts


def test_check_builds_each_invariant_once(capsys, monkeypatch, corpus):
    checked = repeated = 0
    for entry in corpus:
        if not all(entry["expected"]["qr"].values()):
            continue
        counts = count_calls(monkeypatch)
        assert main(["check", str(CORPUS_DIR / entry["file"])]) == 0
        doc = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        primes = doc["primes"]
        # the chain is nested, so distinct D_n are distinct subgroup orders
        subgroups = sum(len({lv["subgroup_order"] for lv in doc["qr"][str(p)]["levels"]})
                        for p in primes)
        repeated += sum(len(doc["qr"][str(p)]["levels"]) for p in primes) - subgroups
        harness = [doc["harness"][str(p)]["levels"] for p in primes]
        harness_subgroups = sum(len({lv["quotient_order"] for lv in levels})
                                for levels in harness)
        # the one module builder: over F_p per level, and over Z/p^k where the lift ran
        lifted = sum(len({lv["quotient_order"] for lv in levels
                          if lv["integral"] != "not_attempted"})
                     for levels in harness)
        assert counts == {
            "relation_lattice": 1,
            "dimension_subgroup_chain": len(primes),
            "jennings_series": len(primes),
            "coinvariants": subgroups - (len(primes) - 1),  # D_1 = G built once
            "quotient_table": harness_subgroups,
            "module_from_coinvariants": harness_subgroups + lifted,
        }, entry["id"]
        checked += 1
    assert checked == 10 and repeated > 0


def count_coordinates(monkeypatch) -> Counter:
    """Count Lattice.coordinates calls by the qrlab function that asked."""
    counts: Counter = Counter()
    orig = Lattice.coordinates

    def wrapper(self, vec):
        frame = sys._getframe(1)
        while frame.f_code.co_name in ("__contains__", "<genexpr>", "<listcomp>"):
            frame = frame.f_back
        counts[frame.f_code.co_name] += 1
        return orig(self, vec)

    monkeypatch.setattr(Lattice, "coordinates", wrapper)
    return counts


def test_relation_lattice_solves_nothing(monkeypatch, corpus):
    """Coordinates on the cycle lattice are chord entries, read off: no
    solve.  The certificate's Lattice runs only on the chords that peeling
    leaves, with their number as its width, and on these inputs peeling
    leaves none, so no Lattice is built."""
    widths = []

    class Recorded(Lattice):
        def __init__(self, ambient):
            widths.append(ambient)
            super().__init__(ambient)

    paths = [ORDER32_DIR / n for n in ORDER32] + [NQR32]
    texts = [e["text"] for e in corpus] + [path.read_text() for path in paths]
    for text in texts:
        pres = parse_presentation(text)
        tbl = todd_coxeter(pres)
        counts = count_coordinates(monkeypatch)
        monkeypatch.setattr(qrlab.relmod, "Lattice", Recorded)
        calls = spy_peel(monkeypatch)
        widths.clear()
        relation_lattice(pres, tbl)
        monkeypatch.undo()
        assert counts == {} and [residual for _, residual in calls] == [[]] and widths == [], text


def test_analyze_solves_nothing(monkeypatch):
    pres = parse_presentation((ORDER32_DIR / "q32.pres").read_text())
    counts = count_coordinates(monkeypatch)
    rep = analyze(pres, (2,))
    monkeypatch.undo()
    assert rep.error is None
    assert len({lv.quotient_order for lv in rep.harness[2].levels}) > 1
    assert counts == {}


def test_analyze_reports_a_failed_stage_instead_of_raising():
    pres = parse_presentation("gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2")
    rep = analyze(pres, (2,), max_cosets=3)
    assert rep.failed_stage == "enumerate"
    assert isinstance(rep.error, BudgetExceeded)
    assert rep.tbl is None and rep.qr == {} and "enumerate" in rep.timing_ms


@pytest.mark.parametrize("path", [ORDER32_DIR / "c64.pres", NQR64], ids=["c64", "nqr64"])
def test_analyze_stops_at_the_bar_gate_above_order_32(capsys, path):
    """The pipeline runs the bar route only up to order 32: above it the
    h2 stage fails after Hopf's formula, before any QR verdict, and check
    exits 3."""
    rep = analyze(parse_presentation(path.read_text()), (2,))
    assert rep.failed_stage == "h2"
    assert isinstance(rep.error, BudgetExceeded)
    assert str(rep.error) == "bar resolution bound 32 exceeded (order 64)"
    assert rep.h2_hopf is None and rep.qr == {}
    assert main(["check", str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["failed_stage"] == "h2"


def test_analyze_keeps_what_the_harness_reads():
    pres = parse_presentation("gens: a; relators: a^4; prime: 2")
    rep = analyze(pres, (2,), max_level=2)
    assert rep.error is None and rep.failed_stage is None
    qr = rep.qr[2]
    assert qr.rlat is rep.rlat
    assert [lv.subgroup.order for lv in qr.levels] == [4, 2, 1]
    assert [lv.coin.invariants for lv in qr.levels] == [lv.invariants for lv in qr.levels]
    assert [lv.level for lv in rep.harness[2].levels] == [1, 2]
    assert set(rep.timing_ms) == {"enumerate", "lattice", "h2_hopf", "h2_bar",
                                  "qr_2", "harness_2"}
