#!/usr/bin/env python3
"""Verdict-time benchmark for qrlab: how long until a certified answer.

Run from the repository root:

    python3 bench/run.py --workload harness32 --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists and what it should move):

  corpus      the bundled 13-entry corpus through `qrlab.cli.main(["corpus",
              ...])`, the full user path including the bar-resolution H2.
  harness32   q32 and m32 at p = 2 through the verdict pipeline.
  cyclic-top  c64 at p = 2 and c81 at p = 3 through the verdict pipeline.

The verdict pipeline is `check` without the bar oracle: parse_presentation,
todd_coxeter, relation_lattice, gab_invariants, hopf_h2, qr_check_full and,
on quasirational input, equivalence_harness at precision 20.

One process, one caller, a closed loop: the next input starts when the
previous one has finished.  Passes over the workload's inputs repeat until
--seconds have elapsed (at least one pass); --seed only permutes the input
order inside each pass.  Every output is checked against frozen expected
values (bundled corpus.json, or bench/inputs/expected.json).

--trace 0 reports the end-to-end metrics (untraced).  --trace 1 alternates
untraced and traced passes (bench/spans.py wraps qrlab's public functions
from outside) and reports the per-layer metrics plus the tracing overhead.
Times are reported at a reference speed (bench/speed.py); wall times are
printed next to them.  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics; the exit code is 0 only if every
input matched.  A run record (seed, passes, wall times and scale factors,
every layer stat) and, when traced, the spans are written under .bench_run/
in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import speed
from spans import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
INPUTS_DIR = os.path.join(BENCH_DIR, "inputs")
RUN_DIR = os.path.join(ROOT, ".bench_run")
CORPUS_PATH = os.path.join(ROOT, "src", "qrlab", "corpus", "corpus.json")

PRECISION = 20
SETUP_SAMPLES = 7
VERDICT_WORKLOADS = {"harness32": ("q32", "m32"), "cyclic-top": ("c64", "c81")}
WORKLOADS = ("corpus", *VERDICT_WORKLOADS)

# Public functions timed by the traced run, by defining module.
TRACED = {
    "presentation": ("parse_presentation",),
    "enumeration": ("todd_coxeter", "quotient_table", "all_subgroups"),
    "intlinalg": ("smith_normal_form", "integer_inverse"),
    "groupring": ("dimension_subgroup_chain", "jennings_series"),
    "relmod": ("relation_lattice", "coinvariants", "hopf_h2", "qr_check_full",
               "bar_h2"),
    "permrec": ("module_from_coinvariants", "marks_multiplicities",
                "perm_recognize_modp", "gen_perm_lift", "transition_map",
                "equivalence_harness"),
    "cli": ("main",),
}
# Kernel operations too frequent for a span each: call counts only.
COUNTED = (("intlinalg", "ModpSpan", "add"),)


def _matrix_cells(a) -> int:
    if hasattr(a, "cols"):  # an IntMatrix
        return a.rows * a.cols
    return len(a) * (len(a[0]) if a else 0)


PROBES = {
    "permrec.module_from_coinvariants": lambda a, kw, r: {
        "dim_max": r.dim, "quotient_order_max": r.qtbl.order},
    "permrec.marks_multiplicities": lambda a, kw, r: {
        "candidates": len(r.candidates)},
    "permrec.perm_recognize_modp": lambda a, kw, r: {
        "trials": r.trials, "decided": int(r.status in ("certified", "refuted"))},
    "permrec.gen_perm_lift": lambda a, kw, r: {
        "assignments": r.assignments_tried},
    "relmod.bar_h2": lambda a, kw, r: {"cols_max": (a[0].order - 1) ** 2},
    "relmod.relation_lattice": lambda a, kw, r: {"rank_max": r.rank},
    "intlinalg.smith_normal_form": lambda a, kw, r: {"max_cells": _matrix_cells(a[0])},
}

# Per-layer metrics reported by --trace 1, as "<span>.<stat>"; values are the
# median over traced passes (stats ending in _max: the largest seen).  Listed
# with the end-to-end metric each should move in bench/README.md.
LAYER_METRICS = (
    "permrec.module_from_coinvariants.calls",
    "permrec.module_from_coinvariants.self_ms",
    "permrec.module_from_coinvariants.dim_max",
    "permrec.module_from_coinvariants.quotient_order_max",
    "intlinalg.integer_inverse.calls",
    "intlinalg.integer_inverse.self_ms",
    "permrec.marks_multiplicities.calls",
    "permrec.marks_multiplicities.self_ms",
    "permrec.marks_multiplicities.candidates",
    "permrec.transition_map.calls",
    "permrec.transition_map.self_ms",
    "permrec.gen_perm_lift.calls",
    "permrec.gen_perm_lift.self_ms",
    "permrec.gen_perm_lift.assignments",
    "permrec.equivalence_harness.self_ms",
    "permrec.perm_recognize_modp.self_ms",
    "permrec.perm_recognize_modp.trials",
    "permrec.perm_recognize_modp.decided_ratio",
    "groupring.dimension_subgroup_chain.calls",
    "groupring.dimension_subgroup_chain.self_ms",
    "groupring.jennings_series.self_ms",
    "intlinalg.ModpSpan.add.calls",
    "relmod.bar_h2.calls",
    "relmod.bar_h2.self_ms",
    "relmod.bar_h2.cols_max",
    "relmod.relation_lattice.calls",
    "relmod.relation_lattice.self_ms",
    "relmod.relation_lattice.rank_max",
    "relmod.coinvariants.calls",
    "relmod.coinvariants.self_ms",
    "relmod.hopf_h2.self_ms",
    "relmod.qr_check_full.self_ms",
    "intlinalg.smith_normal_form.calls",
    "intlinalg.smith_normal_form.self_ms",
    "intlinalg.smith_normal_form.max_cells",
    "enumeration.todd_coxeter.calls",
    "enumeration.todd_coxeter.self_ms",
    "enumeration.quotient_table.calls",
    "enumeration.quotient_table.self_ms",
    "enumeration.all_subgroups.calls",
    "enumeration.all_subgroups.self_ms",
    "presentation.parse_presentation.self_ms",
    "cli.main.self_ms",
    # inclusive share of the traced pass: the layer split per workload
    "relmod.bar_h2.share",
    "permrec.equivalence_harness.share",
    "groupring.dimension_subgroup_chain.share",
    # self time of each module's traced functions over the traced pass
    *(f"{m}.self_share" for m in TRACED),
    "unknown_levels",
    "trace.overhead_frac",
)


# End-to-end metrics reported by --trace 0 (failed_frac and unknown_levels are
# printed too, but are 0 on a healthy run; see bench/README.md).
END_TO_END = ("pass_s", "slowest_input_s", "setup_s", "peak_rss_mb")


class SetupError(Exception):
    """The checkout cannot run the benchmark (no sources, bad inputs)."""


def import_qrlab(root: str = ROOT):
    """Import qrlab from root/src and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qrlab", "__init__.py")):
        raise SetupError(f"no qrlab sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import qrlab
    import qrlab.cli  # noqa: F401 - the corpus path and the traced cli layer

    if not os.path.abspath(qrlab.__file__).startswith(src + os.sep):
        raise SetupError(f"qrlab imported from {qrlab.__file__}, not {src}")
    return qrlab


def qrlab_modules(qrlab) -> dict:
    """Every loaded qrlab module by short name ("qrlab" for the package)."""
    return {
        name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "qrlab" or name.startswith("qrlab."))
    }


# ---------------------------------------------------------------------------
# inputs


# What inputs/expected.json may freeze for a verdict input.
VERDICT_KEYS = ("order", "gab", "h2", "qr", "levels", "violations")


@dataclass(frozen=True)
class Input:
    id: str
    primes: tuple[int, ...]
    path: str
    text: str
    expected: dict


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_corpus(qrlab, path: str = CORPUS_PATH) -> list[Input]:
    """Entries of a corpus manifest; each presentation is read and parsed."""
    base = os.path.dirname(os.path.abspath(path))
    out = []
    for entry in json.loads(_read(path))["entries"]:
        fpath = os.path.join(base, entry["file"])
        text = _read(fpath)
        qrlab.parse_presentation(text)
        out.append(Input(entry["id"], tuple(entry.get("primes", [2])), fpath,
                         text, entry.get("expected", {})))
    return out


def load_verdict_inputs(qrlab, ids, inputs_dir: str) -> list[Input]:
    """Named entries of inputs_dir/expected.json, parsed, one prime each."""
    doc = json.loads(_read(os.path.join(inputs_dir, "expected.json")))
    by_id = {e["id"]: e for e in doc["inputs"]}
    out = []
    for ident in ids:
        entry = by_id[ident]
        fpath = os.path.join(inputs_dir, entry["file"])
        text = _read(fpath)
        pres = qrlab.parse_presentation(text)
        if tuple(pres.primes) != (entry["prime"],):
            raise SetupError(f"{ident}: file primes {pres.primes} != {entry['prime']}")
        unknown = set(entry["expected"]) - set(VERDICT_KEYS)
        if unknown:
            raise SetupError(f"{ident}: unknown expected keys {sorted(unknown)}")
        out.append(Input(ident, (entry["prime"],), fpath, text, entry["expected"]))
    return out


def load_workload(qrlab, workload: str) -> list[Input]:
    if workload == "corpus":
        return load_corpus(qrlab)
    return load_verdict_inputs(qrlab, VERDICT_WORKLOADS[workload], INPUTS_DIR)


# ---------------------------------------------------------------------------
# one pass


@dataclass
class PassResult:
    seconds: float  # wall time
    scale: float = 1.0  # wall -> reference time during this pass (speed.py)
    input_seconds: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    unknown_levels: int = 0


def verdict(qrlab, text: str, p: int) -> dict:
    """The verdict pipeline on one presentation; returns what it decided."""
    pres = qrlab.parse_presentation(text)
    tbl = qrlab.todd_coxeter(pres)
    rlat = qrlab.relation_lattice(pres, tbl)
    gab = qrlab.gab_invariants(pres)
    h2 = qrlab.hopf_h2(rlat)
    rep = qrlab.qr_check_full(pres, tbl, p)
    got = {
        "order": tbl.order, "gab": list(gab.torsion), "h2": list(h2.torsion),
        "qr": rep.quasirational, "levels": len(rep.levels),
        "harness_levels": None, "violations": None, "unknown": 0,
    }
    if rep.quasirational:
        har = qrlab.equivalence_harness(pres, tbl, p, precision=PRECISION)
        got.update(harness_levels=len(har.levels), violations=har.violations,
                   unknown=har.unknown_levels)
    return got


def verdict_mismatches(got: dict, expected: dict) -> list[str]:
    bad = [f"{k}: expected {expected[k]!r}, got {got[k]!r}"
           for k in VERDICT_KEYS if k in expected and expected[k] != got[k]]
    if got["qr"] and got["harness_levels"] != got["levels"]:
        bad.append(f"harness levels {got['harness_levels']} != qr levels {got['levels']}")
    return bad


def verdict_pass(qrlab, order: list[Input]) -> PassResult:
    res = PassResult(0.0)
    t_pass = time.perf_counter()
    for inp in order:
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            got = verdict(qrlab, inp.text, inp.primes[0])
        except Exception as exc:  # noqa: BLE001 - a raising input is a failed input
            res.input_seconds[inp.id] = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            res.failures.append(f"{inp.id}: raised {type(exc).__name__}: {exc}")
            continue
        res.input_seconds[inp.id] = time.perf_counter() - t0
        res.unknown_levels += got["unknown"]
        res.failures.extend(f"{inp.id}: {b}" for b in verdict_mismatches(got, inp.expected))
    res.seconds = time.perf_counter() - t_pass
    return res


def corpus_mismatches(row: dict, expected: dict, prime: int) -> list[str]:
    """The bundled corpus's expected block, compared here, not by the CLI."""
    if row.get("error") is not None:
        return [f"error: {row['error']}"]
    bad = []
    for key in ("order", "gab", "h2", "qr", "harness"):
        if key not in expected:
            continue
        want = expected[key]
        if isinstance(want, dict):
            if str(prime) not in want:
                continue
            want = want[str(prime)]
        if want != row.get(key):
            bad.append(f"{key}: expected {want!r}, got {row.get(key)!r}")
    return bad


def _unknown_from_tag(tag: str) -> int:
    # harness tags read "<violations>v<unknown>u<levels>l"; "-" when not QR
    return int(tag.split("v")[1].split("u")[0]) if tag != "-" else 0


def corpus_pass(qrlab, order: list[Input], run_dir: str) -> PassResult:
    """One `qrlab corpus` run over a manifest listing the inputs in order."""
    manifest = os.path.join(run_dir, "corpus-manifest.json")
    out = os.path.join(run_dir, "corpus-out.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"entries": [
            {"id": i.id, "file": i.path, "primes": list(i.primes), "expected": i.expected}
            for i in order
        ]}, fh)
    res = PassResult(0.0, attempted=sum(len(i.primes) for i in order))
    t0 = time.perf_counter()
    try:
        code = qrlab.cli.main(["corpus", manifest, "--out", out, "--timing"])
    except Exception as exc:  # noqa: BLE001 - a crash fails every input
        res.seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        res.failures.extend(f"{i.id}: cli raised {type(exc).__name__}: {exc}" for i in order)
        return res
    res.seconds = time.perf_counter() - t0
    rows = {(r["id"], r["prime"]): r for r in json.loads(_read(out))["rows"]}
    for inp in order:
        for p in inp.primes:
            row = rows.get((inp.id, p))
            if row is None:
                res.failures.append(f"{inp.id}[{p}]: no row")
                continue
            res.input_seconds[f"{inp.id}[{p}]"] = row["millis"] / 1000
            res.unknown_levels += _unknown_from_tag(row.get("harness", "-"))
            res.failures.extend(f"{inp.id}[{p}]: {b}"
                                for b in corpus_mismatches(row, inp.expected, p))
    if code != 0 and not res.failures:
        res.failures.append(f"corpus exited {code} with every row matching")
    return res


def run_pass(qrlab, workload: str, order: list[Input], run_dir: str) -> PassResult:
    if workload == "corpus":
        return corpus_pass(qrlab, order, run_dir)
    return verdict_pass(qrlab, order)


# ---------------------------------------------------------------------------
# measurement


def new_tracer(qrlab) -> Tracer:
    return Tracer(qrlab_modules(qrlab), TRACED, COUNTED, PROBES)


def measure(qrlab, workload, inputs, seed, seconds, run_dir, trace=False):
    """Passes until `seconds` have elapsed (at least one; two when tracing).

    Pass i runs the inputs in the order random.Random(seed * 1_000_003 + i)
    shuffles them to.  With `trace`, odd passes run under a fresh Tracer, so
    traced and untraced passes alternate and share the machine's drift.
    Returns (untraced passes, traced passes, their tracers).
    """
    plain, traced, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    with speed.SpeedSampler() as sampler:
        while i < 1 + trace or time.perf_counter() < deadline:
            order = list(inputs)
            random.Random(seed * 1_000_003 + i).shuffle(order)
            gc.collect()  # every pass starts from a collected heap
            first_sample = len(sampler.samples)
            if trace and i % 2:
                tracer = new_tracer(qrlab)
                with tracer:
                    res = run_pass(qrlab, workload, order, run_dir)
                traced.append(res)
                tracers.append(tracer)
            else:
                res = run_pass(qrlab, workload, order, run_dir)
                plain.append(res)
            res.scale = sampler.scale_since(first_sample)
            i += 1
    return plain, traced, tracers


def setup_seconds(workload: str) -> list[tuple[float, float]]:
    """Fresh-interpreter samples of import qrlab + read and parse inputs,
    as (reference seconds, wall seconds)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()}")
        ref_s, wall_s = proc.stdout.split()[-2:]
        samples.append((float(ref_s), float(wall_s)))
    return samples


def layer_stats(tracers, passes) -> dict[str, float]:
    """Every "<span>.<stat>" over the traced passes, plus time shares.

    Counts and times are medians over passes, "_max" stats the maximum;
    times are scaled to reference speed like the pass they were taken in.
    "<span>.share" is the span's inclusive time over the pass time and
    "<module>.self_share" the summed self time of the module's spans.
    """
    per_pass = [t.summary() for t in tracers]
    for summary, p in zip(per_pass, passes):
        for row in summary.values():
            for stat in ("total_ms", "self_ms"):
                if stat in row:
                    row[stat] *= p.scale
        rec = summary.get("permrec.perm_recognize_modp")
        if rec:
            rec["decided_ratio"] = rec.get("decided", 0) / rec["calls"]
    pass_ms = [p.seconds * p.scale * 1000 for p in passes]
    out: dict[str, float] = {}
    for name in sorted({n for s in per_pass for n in s}):
        rows = [s.get(name, {}) for s in per_pass]
        for stat in sorted({k for row in rows for k in row}):
            vals = [row.get(stat, 0) for row in rows]
            out[f"{name}.{stat}"] = (max(vals) if stat.endswith("_max")
                                     else statistics.median(vals))
        if any("total_ms" in row for row in rows):
            out[f"{name}.share"] = statistics.median(
                row.get("total_ms", 0.0) / ms for row, ms in zip(rows, pass_ms))
    for mod in TRACED:
        out[f"{mod}.self_share"] = statistics.median(
            sum(row.get("self_ms", 0.0) for n, row in s.items()
                if n.startswith(mod + ".")) / ms
            for s, ms in zip(per_pass, pass_ms))
    return out


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q[0]:.4f} q3={q[2]:.4f}"


def _unit(metric: str) -> str:
    stat = metric.rpartition(".")[2]
    if stat.endswith("_ms"):
        return "ms"
    if stat in ("decided_ratio", "overhead_frac", "self_share", "share"):
        return "ratio"
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        qrlab = import_qrlab()
        inputs = load_workload(qrlab, workload)
        setup = setup_seconds(workload)
        run_dir = RUN_DIR
        os.makedirs(run_dir, exist_ok=True)
    except (OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        raise SetupError(f"{type(exc).__name__}: {exc}") from exc
    passes, traced_passes, tracers = measure(qrlab, workload, inputs, seed, seconds,
                                             run_dir, trace)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(p.attempted for p in passes + traced_passes)
    failures = [f for p in passes + traced_passes for f in p.failures]
    # reference-speed times (speed.py); wall times are printed alongside
    pass_s = [p.seconds * p.scale for p in passes]
    slowest = [max(p.input_seconds.values()) * p.scale for p in passes if p.input_seconds]
    setup_ref = [ref for ref, _ in setup]
    wall = {
        "pass_s": statistics.median(p.seconds for p in passes),
        "slowest_input_s": statistics.median(
            max(p.input_seconds.values()) for p in passes if p.input_seconds
        ) if slowest else 0.0,
        "setup_s": statistics.median(w for _, w in setup),
    }
    unknown = statistics.median(p.unknown_levels for p in passes)
    end_to_end = {  # name: (value, unit, note)
        "pass_s": (statistics.median(pass_s), "s", _spread(pass_s)),
        "slowest_input_s": (statistics.median(slowest) if slowest else 0.0, "s",
                            _spread(slowest)),
        "setup_s": (statistics.median(setup_ref), "s", _spread(setup_ref)),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of this process"),
        "failed_frac": (len(failures) / attempted, "ratio",
                        f"{len(failures)}/{attempted} inputs"),
        "unknown_levels": (unknown, "count", "harness levels per pass"),
    }
    print(f"workload {workload}  seed {seed}  passes {len(passes)}"
          f"+{len(traced_passes)} traced  inputs/pass {len(inputs)}")
    for name, (value, unit, note) in end_to_end.items():
        if name in wall:
            note += f"  wall {wall[name]:.4f} s"
        print(f"{name:<18} {value:>12.4f} {unit:<6} {note}")
    for line in failures:
        print(f"FAILED {line}")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "pass_wall_s": [p.seconds for p in passes],
        "pass_scale": [p.scale for p in passes],
        "traced_pass_wall_s": [p.seconds for p in traced_passes],
        "traced_pass_scale": [p.scale for p in traced_passes],
        "input_wall_s": [p.input_seconds for p in passes],
        "setup_ref_and_wall_s": setup, "failures": failures,
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
    }
    if trace:
        layers = layer_stats(tracers, traced_passes)
        layers["unknown_levels"] = unknown
        layers["trace.overhead_frac"] = (
            statistics.median(p.seconds * p.scale for p in traced_passes)
            / statistics.median(pass_s) - 1)
        record["layers"] = layers
        for name in sorted(layers):
            print(f"  {name:<55} {layers[name]:.4f}")
        tracers[-1].write_jsonl(os.path.join(run_dir, f"spans-{workload}-seed{seed}.jsonl"))
        metrics = {m: {"value": layers.get(m, 0), "unit": _unit(m)} for m in LAYER_METRICS}
    else:
        metrics = {k: {"value": end_to_end[k][0], "unit": end_to_end[k][1]}
                   for k in END_TO_END}
    with open(os.path.join(run_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        speed.kernel()  # warm-up: the first call in a fresh interpreter is slow
        kernel_times = [speed.kernel() for _ in range(5)]
        t0 = time.perf_counter()
        load_workload(import_qrlab(), args.workload)
        wall = time.perf_counter() - t0
        kernel_times += [speed.kernel() for _ in range(5)]
        print(wall * speed.scale(kernel_times), wall)
        return 0
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        sys.stderr.write(f"bench: cannot run {args.workload}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
