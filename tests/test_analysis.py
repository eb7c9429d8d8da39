"""The one pipeline: what `check` prints, and how often it builds each invariant.

The golden files in tests/data/check/ are `qrlab check FILE` output (no
--timing) for the bundled presentations, with the "file" value replaced by
the file name; every level table, multiplicity and trial count is pinned.
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
from qrlab.errors import BudgetExceeded
from qrlab.presentation import parse_presentation

from conftest import CORPUS_DIR

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "data" / "check"
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
)


def count_calls(monkeypatch) -> Counter:
    """Count calls to each COUNTED function under every qrlab name bound to it."""
    counts: Counter = Counter()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "qrlab" or n.startswith("qrlab."))]
    for home, name in COUNTED:
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
    checked = 0
    for entry in corpus:
        if not all(entry["expected"]["qr"].values()):
            continue
        counts = count_calls(monkeypatch)
        assert main(["check", str(CORPUS_DIR / entry["file"])]) == 0
        doc = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        primes = doc["primes"]
        levels = sum(len(doc["qr"][str(p)]["levels"]) for p in primes)
        harness_levels = sum(len(doc["harness"][str(p)]["levels"]) for p in primes)
        assert counts == {
            "relation_lattice": 1,
            "dimension_subgroup_chain": len(primes),
            "jennings_series": len(primes),
            "coinvariants": 1 + levels,
            "quotient_table": harness_levels,
        }, entry["id"]
        checked += 1
    assert checked == 10


def test_analyze_reports_a_failed_stage_instead_of_raising():
    pres = parse_presentation("gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2")
    rep = analyze(pres, (2,), max_cosets=3)
    assert rep.failed_stage == "enumerate"
    assert isinstance(rep.error, BudgetExceeded)
    assert rep.tbl is None and rep.qr == {} and "enumerate" in rep.timing_ms


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
