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

import qrlab.analysis
import qrlab.enumeration
import qrlab.groupring
import qrlab.relmod
from qrlab.analysis import analyze
from qrlab.cli import main
from qrlab.enumeration import FiniteGroupTable, prime_power, todd_coxeter
from qrlab.errors import BudgetExceeded, PropertyViolation
from qrlab.intlinalg import AbelianInvariants, Lattice
from qrlab.permrec import equivalence_harness, tower_harness
from qrlab.presentation import parse_presentation
from qrlab.relmod import hopf_h2, qr_check, qr_check_full, relation_lattice

from conftest import C9XC9, CORPUS_DIR, NQR64, ORDER32, ORDER32_DIR, spy_peel

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


STAGE_COUNTED = (
    (qrlab.relmod, "_peel"),
    (qrlab.relmod, "coinvariants"),
    (qrlab.groupring, "dimension_subgroup_chain"),
)


@pytest.mark.parametrize("name, p", [("q32", 2), ("c81", 3)])
def test_stage_functions_share_one_lattice_and_one_report(monkeypatch, name, p):
    """The verdict pipeline's stages, each called on (pres, tbl) or on the
    lattice, build one lattice per (table, presentation) and one report
    per prime: one peel, one chain, and one level per distinct D_n, R/[R,F]
    included."""
    text = (ORDER32_DIR / f"{name}.pres").read_text()
    pres = parse_presentation(text)
    tbl = todd_coxeter(pres)
    counts = count_calls(monkeypatch, STAGE_COUNTED)
    rlat = relation_lattice(pres, tbl)
    hopf_h2(rlat)
    rep = qr_check_full(pres, tbl, p)
    har = equivalence_harness(pres, tbl, p, precision=20)
    monkeypatch.undo()
    assert rep.quasirational
    assert counts == {"_peel": 1, "dimension_subgroup_chain": 1,
                      "coinvariants": len({lv.subgroup_order for lv in rep.levels})}
    assert rep.rlat is rlat and qr_check(rlat, p) is rep
    assert relation_lattice(parse_presentation(text), tbl) is rlat
    fresh = relation_lattice(pres, todd_coxeter(pres))
    assert fresh is not rlat
    assert har == tower_harness(qr_check(fresh, p), 20)


def test_a_failed_lattice_build_is_not_kept():
    """Z/4 with its generator sent to 2: the images reach 2 of the 4
    elements, certificate (a) fails, and it fails again on a second call."""
    pres = parse_presentation("gens: a; relators: a^4; prime: 2")
    tbl = FiniteGroupTable(4, tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4)),
                           (0, 3, 2, 1), (2,), ((), ((0, 1),), ((0, 1),) * 2, ((0, -1),)))
    for _ in range(2):
        with pytest.raises(PropertyViolation, match="reach 2 of 4 elements"):
            relation_lattice(pres, tbl)
    assert tbl._lattices == {}


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
        monkeypatch.setattr(qrlab.relmod, "Lattice", Recorded)
        calls = spy_peel(monkeypatch)
        widths.clear()
        relation_lattice(pres, tbl)
        monkeypatch.undo()
        assert [residual for _, residual in calls] == [[]] and widths == [], text


def test_analyze_solves_nothing():
    """The pipeline's Lattice only inserts rows and reads its basis: it has
    no solver (the tests' one is reference.lattice_coordinates), so no
    stage can solve in it."""
    assert not {"coordinates", "__contains__"} & set(vars(Lattice))
    pres = parse_presentation((ORDER32_DIR / "q32.pres").read_text())
    rep = analyze(pres, (2,))
    assert rep.error is None
    assert len({lv.quotient_order for lv in rep.harness[2].levels}) > 1


def test_analyze_reports_a_failed_stage_instead_of_raising():
    pres = parse_presentation("gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2")
    rep = analyze(pres, (2,), max_cosets=3)
    assert rep.failed_stage == "enumerate"
    assert isinstance(rep.error, BudgetExceeded)
    assert rep.tbl is None and rep.qr == {} and "enumerate" in rep.timing_ms


ABOVE_32 = [  # (id, path or inline text, H2 torsion, witness level at the file's prime)
    ("c64", ORDER32_DIR / "c64.pres", (), None),
    ("c81", ORDER32_DIR / "c81.pres", (), None),
    ("nqr64", NQR64, (), 2),
    ("nqr243", NQR64.parent / "nqr243.pres", (), 2),
    ("q64", "gens: a, b; relators: a^16*b^-2, a*b*a*b^-1; prime: 2", (), None),
    ("m64", "gens: a, b; relators: a^32, b^2, b*a*b^-1*a^-17; prime: 2", (), None),
    ("q128", "gens: a, b; relators: a^32*b^-2, a*b*a*b^-1; prime: 2", (), None),
    ("c243", "gens: a; relators: a^243; prime: 3", (), None),
    ("c9xc9", C9XC9, (9,), 1),
]


@pytest.mark.parametrize("name,source,h2,witness", ABOVE_32, ids=[c[0] for c in ABOVE_32])
def test_check_answers_above_order_32(capsys, tmp_path, name, source, h2, witness):
    """No stage stops at an order: above 32 both H2 routes run and agree,
    every prime gets its QR verdict, a QR input its harness over
    Z/p^(1 + v_p|G|) with no violation, and check exits 0."""
    path = source
    if isinstance(source, str):
        path = tmp_path / f"{name}.pres"
        path.write_text(source)
    pres = parse_presentation(path.read_text())
    (p,) = pres.primes
    rep = analyze(pres, (p,))
    assert rep.failed_stage is None and rep.error is None
    assert rep.tbl.order > 32
    hop, bar = rep.h2_hopf, rep.h2_bar
    assert (hop.free_rank, hop.torsion) == (bar.free_rank, bar.torsion) == (0, h2)
    assert rep.qr[p].witness_level == witness
    assert rep.qr[p].quasirational == (witness is None)
    if witness is None:
        harness = rep.harness[p]
        assert harness.violations == 0
        assert harness.precision == 1 + prime_power(rep.tbl.order)[1]
    else:
        assert p not in rep.harness
    assert main(["check", str(path)]) == 0
    assert "failed_stage" not in json.loads(capsys.readouterr().out)


def test_check_fails_when_the_h2_routes_disagree(capsys, monkeypatch):
    """A bar route that disagrees with Hopf's formula fails the h2 stage
    with a PropertyViolation, before any verdict, and check exits 1."""
    path = CORPUS_DIR / "q8.pres"
    monkeypatch.setattr(qrlab.analysis, "bar_h2", lambda tbl: AbelianInvariants(0, (2,)))
    rep = analyze(parse_presentation(path.read_text()), (2,))
    assert rep.failed_stage == "h2"
    assert isinstance(rep.error, PropertyViolation)
    assert str(rep.error).startswith("H2 routes disagree")
    assert rep.h2_hopf is None and rep.qr == {}
    assert main(["check", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["failed_stage"] == "h2" and "qr" not in doc


def test_analyze_keeps_what_the_harness_reads():
    pres = parse_presentation("gens: a; relators: a^4; prime: 2")
    rep = analyze(pres, (2,))
    assert rep.error is None and rep.failed_stage is None
    qr = rep.qr[2]
    assert qr.rlat is rep.rlat
    assert [lv.subgroup.order for lv in qr.levels] == [4, 2, 1]
    assert [lv.coin.invariants for lv in qr.levels] == [lv.invariants for lv in qr.levels]
    assert [lv.level for lv in rep.harness[2].levels] == [1, 2, 3]
    assert set(rep.timing_ms) == {"enumerate", "lattice", "h2_hopf", "h2_bar",
                                  "qr_2", "harness_2"}
