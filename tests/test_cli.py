"""Command-line surface: exit codes, report shape, determinism.

Everything runs in-process through main(argv), but for one import check in
a fresh interpreter; worker pools are exercised once on the bundled corpus.
"""

import csv
import io
import json
import pathlib
import subprocess
import sys

import pytest

import qrlab
import qrlab.analysis
from qrlab.cli import main
from qrlab.enumeration import todd_coxeter
from qrlab.presentation import parse_presentation
from qrlab.relmod import hopf_h2, relation_lattice

from conftest import NQR64, ORDER32_DIR

Q8 = "gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2\n"
KLEIN = "gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def q8_file(tmp_path):
    f = tmp_path / "q8.pres"
    f.write_text(Q8)
    return str(f)


def test_check_report_shape(capsys, q8_file):
    code, out, _ = run(capsys, "check", q8_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["order"] == 8
    assert doc["gab"]["torsion"] == [2, 2]
    assert doc["h2"]["hopf"]["torsion"] == []
    assert doc["h2"]["bar"]["torsion"] == []
    assert doc["qr"]["2"]["quasirational"] is True
    assert doc["harness"]["2"]["violations"] == 0
    assert doc["harness"]["2"]["unknown_levels"] == 0
    assert "timing_ms" not in out


def test_check_is_byte_deterministic(capsys, q8_file):
    code1, out1, _ = run(capsys, "check", q8_file)
    code2, out2, _ = run(capsys, "check", q8_file)
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_timing_flag(capsys, q8_file):
    code, out, _ = run(capsys, "check", q8_file, "--timing")
    assert code == 0
    assert "timing_ms" in json.loads(out)


def test_check_out_file(capsys, q8_file, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", q8_file, "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["order"] == 8


def test_check_skips_harness_for_non_qr(capsys, tmp_path):
    f = tmp_path / "klein.pres"
    f.write_text(KLEIN)
    code, out, _ = run(capsys, "check", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["qr"]["2"]["quasirational"] is False
    assert doc["qr"]["2"]["witness_level"] is not None
    assert doc["h2"]["hopf"]["torsion"] == [2]
    assert doc["harness"] == {}


def test_check_unreadable_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "missing.pres"))
    assert code == 2


def test_check_parse_error_exits_2_with_failed_stage(capsys, tmp_path):
    f = tmp_path / "bad.pres"
    f.write_text("gens: a; relators: c^2; prime: 2\n")
    code, out, _ = run(capsys, "check", str(f))
    assert code == 2
    doc = json.loads(out)
    assert doc["failed_stage"] == "parse"
    assert "unknown generator" in doc["error"]


def test_check_budget_exits_3(capsys, q8_file):
    code, out, _ = run(capsys, "check", q8_file, "--max-cosets", "3")
    assert code == 3
    assert json.loads(out)["failed_stage"] == "enumerate"


def test_oracle_subgroups_past_the_bound_exits_3(capsys, tmp_path):
    f = tmp_path / "c729.pres"
    f.write_text("gens: a; relators: a^729; prime: 3\n")
    code, out, err = run(capsys, "oracle", "subgroups", str(f))
    assert (code, out) == (3, "")
    assert "subgroup enumeration bound 512 exceeded (order 729)" in err


def test_check_internal_certificate_failure_exits_1(capsys, monkeypatch, q8_file):
    """An internal certificate that raises AssertionError (here a Smith
    divisibility check, raised in the bar route's place) is a violation,
    not bad input."""
    def broken(tbl):
        raise AssertionError("Smith divisibility chain broken")

    monkeypatch.setattr(qrlab.analysis, "bar_h2", broken)
    code, out, _ = run(capsys, "check", q8_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["failed_stage"] == "h2"
    assert doc["error"] == "Smith divisibility chain broken"


def test_check_prime_override(capsys, tmp_path):
    # the trivial group is a p-group for every p, so both primes are legal
    f = tmp_path / "t.pres"
    f.write_text("gens: a; relators: a; prime: 2, 3\n")
    code, out, _ = run(capsys, "check", str(f))
    assert code == 0
    assert list(json.loads(out)["qr"]) == ["2", "3"]
    code, out, _ = run(capsys, "check", str(f), "--prime", "3")
    assert code == 0
    doc = json.loads(out)
    assert list(doc["qr"]) == ["3"]
    assert doc["primes"] == [3]


@pytest.mark.parametrize("command", [["check"], ["oracle", "delta-dims"]])
@pytest.mark.parametrize("value", ["4", "1", "0", "-2"])
def test_prime_option_must_be_prime(capsys, q8_file, command, value):
    # refused before any stage runs, as the file grammar refuses "prime: 4"
    with pytest.raises(SystemExit) as exc:
        main([*command, q8_file, "--prime", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{value} is not prime" in captured.err


@pytest.mark.parametrize("text", [KLEIN, Q8], ids=["klein", "q8"])
@pytest.mark.parametrize("command,option,value", [
    ("check", "--max-cosets", "0"),
    ("corpus", "--jobs", "0"),
])
def test_numeric_options_must_be_positive(capsys, tmp_path, text, command, option, value):
    # a usage error before any stage runs, on a non-quasirational input and
    # a quasirational one alike
    f = tmp_path / "g.pres"
    f.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([command, str(f), option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{value} is not a positive integer" in captured.err


def test_check_runs_a_repeated_prime_once(capsys, q8_file):
    code, out, _ = run(capsys, "check", q8_file, "--prime", "2", "--prime", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["primes"] == [2] and list(doc["qr"]) == ["2"]
    assert json.loads(run(capsys, "check", q8_file)[1]) == doc


def test_check_rejects_non_p_group_tower(capsys, tmp_path):
    f = tmp_path / "c6.pres"
    f.write_text("gens: a; relators: a^6; prime: 2, 3\n")
    code, out, _ = run(capsys, "check", str(f))
    assert code == 2
    doc = json.loads(out)
    assert doc["failed_stage"] == "qr[2]"
    assert "2-group" in doc["error"]
    assert doc["order"] == 6  # partial results still present


def _write_corpus(tmp_path, entries):
    doc = {"schema": 1, "entries": entries}
    f = tmp_path / "corpus.json"
    f.write_text(json.dumps(doc))
    return str(f)


def test_empty_corpus(capsys, tmp_path):
    path = _write_corpus(tmp_path, [])
    code, out, _ = run(capsys, "corpus", path, "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["id,prime,order,gab,h2,qr,harness,millis"]


def test_small_corpus_rows(capsys, tmp_path):
    (tmp_path / "c4.pres").write_text("gens: a; relators: a^4; prime: 2\n")
    (tmp_path / "klein.pres").write_text(KLEIN)
    path = _write_corpus(tmp_path, [
        {"id": "c4", "file": "c4.pres", "primes": [2],
         "expected": {"order": 4, "gab": [4], "h2": [], "qr": {"2": True},
                      "harness": {"2": "0v0u3l"}}},
        {"id": "klein", "file": "klein.pres", "primes": [2],
         "expected": {"order": 4, "gab": [2, 2], "h2": [2], "qr": {"2": False}}},
    ])
    code, out, _ = run(capsys, "corpus", path, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["id"] for r in rows] == ["c4", "klein"]
    assert rows[0]["qr"] == "QR" and rows[0]["harness"] == "0v0u3l"
    assert rows[1]["qr"] == "not-QR" and rows[1]["h2"] == "2"
    code, out, _ = run(capsys, "corpus", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatch_count"] == 0
    assert all("millis" not in row for row in doc["rows"])


def test_options_a_subcommand_ignores_are_rejected(capsys, q8_file):
    for argv in (["check", q8_file, "--format", "csv"],
                 ["oracle", "bar-h2", q8_file, "--timing"],
                 ["oracle", "bar-h2", q8_file, "--precision", "3"],
                 ["check", q8_file, "--precision", "3"],
                 ["corpus", "corpus.json", "--precision", "3"],
                 ["corpus", "corpus.json", "--prime", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_corpus_injected_fault_exits_1(capsys, tmp_path):
    (tmp_path / "c4.pres").write_text("gens: a; relators: a^4; prime: 2\n")
    path = _write_corpus(tmp_path, [
        {"id": "c4", "file": "c4.pres", "primes": [2],
         "expected": {"order": 5}},
    ])
    code, out, err = run(capsys, "corpus", path, "--format", "csv")
    assert code == 1
    assert "mismatch" in err
    # rows are still emitted
    assert any(line.startswith("c4,2,4") for line in out.splitlines())


def test_corpus_duplicate_ids_exit_2(capsys, tmp_path):
    (tmp_path / "c4.pres").write_text("gens: a; relators: a^4; prime: 2\n")
    entry = {"id": "c4", "file": "c4.pres", "primes": [2], "expected": {"order": 4}}
    path = _write_corpus(tmp_path, [entry, dict(entry)])
    code, _, err = run(capsys, "corpus", path, "--format", "csv")
    assert code == 2


C4_ENTRY = {"id": "c4", "file": "c4.pres", "primes": [2]}


@pytest.mark.parametrize("manifest,message", [
    ([C4_ENTRY], "not an object"),
    ({"entries": [{"file": "c4.pres", "primes": [2]}]}, "entry 0 needs an id and a file"),
    ({"entries": [dict(C4_ENTRY, primes=[4])]}, "'c4' has primes [4]"),
], ids=["top-level-list", "entry-without-id", "non-prime"])
def test_corpus_refuses_a_malformed_manifest_before_any_row(capsys, tmp_path, manifest,
                                                            message):
    (tmp_path / "c4.pres").write_text("gens: a; relators: a^4; prime: 2\n")
    f = tmp_path / "corpus.json"
    f.write_text(json.dumps(manifest))
    code, out, err = run(capsys, "corpus", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("bad corpus file: ") and message in err


@pytest.mark.parametrize("command", ["check", "corpus", "oracle"])
def test_out_to_an_unwritable_path_exits_2(capsys, tmp_path, q8_file, command):
    target = tmp_path / "missing" / "report.json"
    argv = {"check": ["check", q8_file],
            "corpus": ["corpus", _write_corpus(tmp_path, [])],
            "oracle": ["oracle", "subgroups", q8_file]}[command]
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"cannot write {target}: No such file or directory\n"


def test_corpus_entry_error_is_a_row_not_a_crash(capsys, tmp_path):
    (tmp_path / "bad.pres").write_text("gens: a; relators: c; prime: 2\n")
    path = _write_corpus(tmp_path, [
        {"id": "bad", "file": "bad.pres", "primes": [2], "expected": {"order": 1}},
    ])
    code, out, _ = run(capsys, "corpus", path, "--format", "json")
    assert code == 2  # a parse failure inside an entry is an input error
    doc = json.loads(out)
    assert "unknown generator" in doc["rows"][0]["error"]


def test_bundled_corpus_matches_expected_blocks(capsys, corpus_dir):
    code, out, err = run(capsys, "corpus", str(corpus_dir / "corpus.json"),
                         "--format", "json", "--jobs", "2")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["mismatch_count"] == 0
    assert len(doc["rows"]) == 13


def test_oracle_outputs(capsys, corpus_dir):
    c4 = str(corpus_dir / "c4.pres")
    code, out, _ = run(capsys, "oracle", "bar-h2", c4)
    assert code == 0
    assert json.loads(out) == {"bar_h2": [], "pretty": "0"}
    code, out, _ = run(capsys, "oracle", "delta-dims", c4)
    assert code == 0
    doc = json.loads(out)
    assert doc["delta_dims"] == [3, 2, 1, 0] and doc["prime"] == 2
    code, out, _ = run(capsys, "oracle", "subgroups", str(corpus_dir / "trivial.pres"))
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1 and doc["orders"] == [1]


@pytest.mark.parametrize("path", [ORDER32_DIR / "c64.pres", ORDER32_DIR / "c81.pres", NQR64],
                         ids=["c64", "c81", "nqr64"])
def test_oracle_bar_h2_has_no_order_gate(capsys, path):
    """bar-h2 answers past order 32, as check's h2 stage does, and agrees
    with Hopf's formula."""
    code, out, err = run(capsys, "oracle", "bar-h2", str(path))
    assert code == 0, err
    pres = parse_presentation(path.read_text())
    hopf = hopf_h2(relation_lattice(pres, todd_coxeter(pres)))
    assert json.loads(out)["bar_h2"] == list(hopf.torsion) == []


def test_cli_import_leaves_the_process_pool_out():
    """Only corpus --jobs N, N > 1, starts a process pool, so a fresh
    interpreter's import of the CLI loads no multiprocessing;
    test_bundled_corpus_matches_expected_blocks runs the pool."""
    src = str(pathlib.Path(qrlab.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qrlab.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"
