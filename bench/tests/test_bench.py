"""Self-tests of the benchmark runner and its tracer.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def qrlab():
    return run.import_qrlab()


def _corpus_input(qrlab, ident):
    (inp,) = [i for i in run.load_corpus(qrlab) if i.id == ident]
    return inp


def _q8_verdict_input(qrlab, **expected):
    q8 = _corpus_input(qrlab, "q8")
    return run.Input("q8", (2,), q8.path, q8.text, expected)


def test_traced_q8_verdict_pipeline_call_counts(qrlab):
    inp = _q8_verdict_input(qrlab, order=8, gab=[2, 2], h2=[], qr=True,
                            levels=3, violations=0)
    tracer = run.new_tracer(qrlab)
    with tracer:
        res = run.verdict_pass(qrlab, [inp])
    assert res.failures == [] and res.attempted == 1
    stats = tracer.summary()
    levels = 3
    assert stats["relmod.relation_lattice"]["calls"] == 3
    assert stats["relmod.coinvariants"]["calls"] == 2 * levels + 1
    assert "relmod.bar_h2" not in stats
    assert "cli.main" not in stats
    assert stats["groupring.dimension_subgroup_chain"]["calls"] == 2


def test_traced_q8_corpus_path_call_counts(qrlab, tmp_path):
    tracer = run.new_tracer(qrlab)
    with tracer:
        res = run.corpus_pass(qrlab, [_corpus_input(qrlab, "q8")], str(tmp_path))
    assert res.failures == [] and res.attempted == 1
    stats = tracer.summary()
    assert stats["relmod.bar_h2"]["calls"] == 1
    assert stats["relmod.relation_lattice"]["calls"] == 3
    assert stats["relmod.coinvariants"]["calls"] == 2 * 3 + 1
    assert stats["cli.main"]["calls"] == 1
    assert stats["relmod.bar_h2"]["cols_max"] == (8 - 1) ** 2


def _qrlab_bindings(qrlab):
    mods = run.qrlab_modules(qrlab)
    snap = {(name, attr): value for name, mod in mods.items()
            for attr, value in vars(mod).items()}
    snap[("intlinalg", "ModpSpan.add")] = mods["intlinalg"].ModpSpan.__dict__["add"]
    return snap


def test_traced_run_restores_every_wrapped_attribute(qrlab):
    before = _qrlab_bindings(qrlab)
    orig = qrlab.relmod.relation_lattice
    tracer = run.new_tracer(qrlab)
    with tracer:
        # wrapped under every module-level name bound to it
        for mod in (qrlab, qrlab.relmod, qrlab.permrec, qrlab.cli):
            assert mod.relation_lattice is not orig
        assert qrlab.intlinalg.smith_normal_form is not before[("intlinalg", "smith_normal_form")]
        assert qrlab.relmod.smith_normal_form is qrlab.intlinalg.smith_normal_form
        assert qrlab.permrec.smith_normal_form is qrlab.intlinalg.smith_normal_form
        wrapped = list(tracer.replaced)
        run.verdict_pass(qrlab, [_q8_verdict_input(qrlab, order=8)])
    assert len(wrapped) > len(run.COUNTED) + sum(map(len, run.TRACED.values()))
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original
    after = _qrlab_bindings(qrlab)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_restores_after_an_exception(qrlab):
    before = _qrlab_bindings(qrlab)
    with pytest.raises(ZeroDivisionError):
        with run.new_tracer(qrlab):
            1 / 0
    after = _qrlab_bindings(qrlab)
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_child_spans():
    mod = types.ModuleType("fake")
    exec(  # module-level functions that call each other through globals
        "import time\n"
        "def leaf():\n    time.sleep(0.02)\n"
        "def outer():\n    time.sleep(0.01)\n    leaf()\n    leaf()\n",
        mod.__dict__,
    )
    leaf = mod.leaf
    alias = types.ModuleType("alias")
    alias.leaf = leaf
    tracer = Tracer({"fake": mod, "alias": alias}, {"fake": ("leaf", "outer")})
    with tracer:
        assert alias.leaf is mod.leaf is not leaf
        mod.outer()
    assert mod.leaf is leaf and alias.leaf is leaf
    stats = tracer.summary()
    assert stats["fake.leaf"]["calls"] == 2
    assert stats["fake.outer"]["calls"] == 1
    outer_row = stats["fake.outer"]
    assert outer_row["self_ms"] == pytest.approx(
        outer_row["total_ms"] - stats["fake.leaf"]["total_ms"])
    assert 8 <= outer_row["self_ms"] < 30
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_wrong_expected_value_is_counted_not_raised(qrlab, tmp_path):
    q8 = _corpus_input(qrlab, "q8")
    shutil.copy(q8.path, tmp_path / "q8.pres")
    (tmp_path / "expected.json").write_text(json.dumps({"inputs": [{
        "id": "q8", "file": "q8.pres", "prime": 2,
        "expected": {"order": 9, "qr": True, "levels": 3, "violations": 0},
    }]}))
    inputs = run.load_verdict_inputs(qrlab, ["q8"], str(tmp_path))
    res = run.verdict_pass(qrlab, inputs)
    assert res.attempted == 1
    assert res.failures == ["q8: order: expected 9, got 8"]


def test_wrong_corpus_expected_value_is_counted_not_raised(qrlab, tmp_path):
    q8 = _corpus_input(qrlab, "q8")
    c2 = _corpus_input(qrlab, "c2")
    wrong = run.Input(q8.id, q8.primes, q8.path, q8.text,
                      {**q8.expected, "h2": [2]})
    res = run.corpus_pass(qrlab, [c2, wrong], str(tmp_path))
    assert res.attempted == 2
    assert res.failures == ["q8[2]: h2: expected [2], got []"]


def test_failed_run_prints_result_and_exits_nonzero(qrlab, tmp_path, monkeypatch, capsys):
    q8 = _corpus_input(qrlab, "q8")
    shutil.copy(q8.path, tmp_path / "q8.pres")
    (tmp_path / "expected.json").write_text(json.dumps({"inputs": [{
        "id": "q8", "file": "q8.pres", "prime": 2, "expected": {"order": 9},
    }]}))
    monkeypatch.setattr(run, "INPUTS_DIR", str(tmp_path))
    monkeypatch.setattr(run, "RUN_DIR", str(tmp_path / "out"))
    monkeypatch.setattr(run, "VERDICT_WORKLOADS", {"harness32": ("q8",)})
    monkeypatch.setattr(run, "setup_seconds", lambda workload: [(0.1, 0.1)])
    code = run.run("harness32", seed=3, seconds=0.0, trace=False)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert (last["attempted"], last["failed"]) == (1, 1)
    assert set(last["metrics"]) == {"pass_s", "slowest_input_s", "setup_s", "peak_rss_mb"}
    record = json.loads((tmp_path / "out" / "harness32-seed3-trace0.json").read_text())
    assert record["seed"] == 3


def test_seed_permutes_order_only(qrlab, tmp_path):
    inputs = [_corpus_input(qrlab, i) for i in ("trivial", "c2", "c3", "c4")]
    orders = []
    for seed in (1, 1, 2):
        passes, _, _ = run.measure(qrlab, "corpus", inputs, seed, 0.0, str(tmp_path))
        orders.append(list(passes[0].input_seconds))
    assert orders[0] == orders[1]
    assert sorted(orders[0]) == sorted(orders[2])


def test_trace_alternates_untraced_and_traced_passes(qrlab, tmp_path):
    inputs = [_corpus_input(qrlab, "c2")]
    plain, traced, tracers = run.measure(qrlab, "corpus", inputs, 1, 0.0,
                                         str(tmp_path), trace=True)
    assert (len(plain), len(traced), len(tracers)) == (1, 1, 1)
    assert tracers[0].summary()["cli.main"]["calls"] == 1


def test_benchmark_json_declares_what_run_reports():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        decl = json.load(fh)
    assert [m["name"] for m in decl["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in decl["per_layer"]] == list(run.LAYER_METRICS)
    assert [w["name"] for w in decl["workloads"]] == list(run.WORKLOADS)
    assert all(m["unit"] == run._unit(m["name"]) for m in decl["per_layer"])


def test_speed_sampler_samples_and_restores_the_alarm():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        deadline = time.perf_counter() + 3 * speed.INTERVAL_S
        while time.perf_counter() < deadline:
            sum(range(1000))
        factor = sampler.scale_since(0)
    assert len(sampler.samples) >= 3
    assert factor > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    root = os.path.dirname(BENCH_DIR)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
