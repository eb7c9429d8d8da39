"""Command line front door: check, corpus, oracle.

Exit codes: 0 clean, 1 property violation or corpus mismatch, 2 input or
parse error, 3 budget exhausted.  JSON output is deterministic for a given
input and version (sorted keys, no timing unless --timing is passed);
partial reports carry a failed_stage marker instead of dying silently.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .analysis import Analysis, analyze
from .enumeration import DEFAULT_MAX_COSETS, all_subgroups, todd_coxeter
from .errors import BudgetExceeded, InputError, PropertyViolation
from .groupring import delta_dimension_sequence
from .permrec import HarnessReport
from .presentation import Presentation, is_prime, parse_presentation
from .relmod import bar_h2

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _read_presentation(path: str) -> Presentation:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    return parse_presentation(text)


def _prime(text: str) -> int:
    if not is_prime(p := int(text)):
        raise argparse.ArgumentTypeError(f"{p} is not prime")
    return p


def _positive(text: str) -> int:
    if (n := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"{n} is not a positive integer")
    return n


def _invariants_dict(inv) -> dict:
    return {
        "free_rank": inv.free_rank,
        "torsion": list(inv.torsion),
        "pretty": str(inv),
    }


def _qr_dict(rep) -> dict:
    return {
        "quasirational": rep.quasirational,
        "witness_level": rep.witness_level,
        "cutoff": rep.cutoff,
        "cutoff_reason": rep.cutoff_reason,
        "g_coinvariants": _invariants_dict(rep.g_coinvariants),
        "levels": [
            {
                "level": lv.level,
                "subgroup_order": lv.subgroup_order,
                "quotient_order": lv.quotient_order,
                "invariants": _invariants_dict(lv.invariants),
                "p_torsion": list(lv.p_torsion),
            }
            for lv in rep.levels
        ],
    }


def _harness_dict(rep: HarnessReport) -> dict:
    return {
        "precision": rep.precision,
        "violations": rep.violations,
        "unknown_levels": rep.unknown_levels,
        "transitions_checked": rep.transitions_checked,
        "levels": [
            {
                "level": lv.level,
                "quotient_order": lv.quotient_order,
                "dim": lv.dim,
                "modp": lv.modp_status,
                "multiplicities": (
                    None if lv.multiplicities is None
                    else [list(pair) for pair in lv.multiplicities]
                ),
                "integral": lv.integral_status,
                "characters_plain": lv.characters_plain,
            }
            for lv in rep.levels
        ],
    }


def _harness_tag(rep: HarnessReport) -> str:
    return f"{rep.violations}v{rep.unknown_levels}u{len(rep.levels)}l"


def _emit(payload: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(payload)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror}") from exc


def _json_dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _exit_code_for(exc: Exception | None) -> int:
    if exc is None:
        return EXIT_OK
    if isinstance(exc, BudgetExceeded):
        return EXIT_BUDGET
    # the internal certificates (Smith, kernel, Fox identity, table checks)
    # raise AssertionError: a violation, not bad input
    if isinstance(exc, (PropertyViolation, AssertionError)):
        return EXIT_VIOLATION
    return EXIT_INPUT


def _analysis_dict(rep: Analysis) -> dict:
    doc: dict = {"input": rep.pres.text(), "primes": list(rep.primes)}
    if rep.tbl is not None:
        doc["order"] = rep.tbl.order
    if rep.rlat is not None:
        doc["relation_rank"] = rep.rlat.rank
    if rep.gab is not None:
        doc["gab"] = _invariants_dict(rep.gab)
    if rep.h2_hopf is not None:
        doc["h2"] = {"hopf": _invariants_dict(rep.h2_hopf),
                     "bar": _invariants_dict(rep.h2_bar)}
        doc["qr"] = {str(p): _qr_dict(qr) for p, qr in rep.qr.items()}
        doc["harness"] = {str(p): _harness_dict(h) for p, h in rep.harness.items()}
    if rep.error is not None:
        doc["failed_stage"] = rep.failed_stage
        doc["error"] = str(rep.error)
    return doc


def _options(args) -> dict:
    return {"max_cosets": args.max_cosets, "max_level": args.max_level}


def cmd_check(args) -> int:
    doc: dict = {"schema": 1, "version": __version__, "file": args.path}
    t0 = time.monotonic()
    try:
        pres, error = _read_presentation(args.path), None
    except Exception as exc:  # noqa: BLE001 - every failure becomes a report
        pres, error = None, exc
        doc.update(failed_stage="parse", error=str(exc))
    timing = {"parse": int((time.monotonic() - t0) * 1000)}
    if pres is not None:
        rep = analyze(pres, args.prime or pres.primes, **_options(args))
        timing.update(rep.timing_ms)
        doc.update(_analysis_dict(rep))
        error = rep.error
    if args.timing:
        doc["timing_ms"] = timing
    _emit(_json_dump(doc), args.out)
    return _exit_code_for(error)


def _corpus_row(corpus_dir: str, options: dict, entry: dict, prime: int) -> dict:
    t0 = time.monotonic()
    row = {"id": entry["id"], "prime": prime}
    try:
        path = entry["file"]
        if not os.path.isabs(path):
            path = os.path.join(corpus_dir, path)
        rep = analyze(_read_presentation(path), (prime,), **options)
        if prime in rep.qr:
            row.update(order=rep.tbl.order, gab=list(rep.gab.torsion),
                       h2=list(rep.h2_hopf.torsion), qr=rep.qr[prime].quasirational)
        if prime in rep.harness:
            row["harness"] = _harness_tag(rep.harness[prime])
        elif row.get("qr") is False:
            row["harness"] = "-"
        error = rep.error
    except Exception as exc:  # noqa: BLE001 - row-level isolation
        error = exc
    row["error"] = None if error is None else str(error)
    if error is not None:
        row["exit"] = _exit_code_for(error)
    row["millis"] = int((time.monotonic() - t0) * 1000)
    return row


def _check_expected(row: dict, expected: dict, prime: int) -> list[str]:
    """Compare the computed row against an expected block, field by field.

    qr and harness expectations are keyed by prime (as a string), matching
    how entries with several primes record them.
    """
    bad = []
    if "order" in expected and expected["order"] != row.get("order"):
        bad.append(f"order: expected {expected['order']!r}, got {row.get('order')!r}")
    for key in ("qr", "harness"):
        if key in expected:
            want = expected[key]
            if isinstance(want, dict):
                if str(prime) not in want:
                    continue
                want = want[str(prime)]
            if want != row.get(key):
                bad.append(f"{key}: expected {want!r}, got {row.get(key)!r}")
    for key in ("gab", "h2"):
        if key in expected and list(expected[key]) != row.get(key):
            bad.append(f"{key}: expected {expected[key]!r}, got {row.get(key)!r}")
    return bad


def _read_corpus(path: str) -> list[dict]:
    """The manifest's entries, checked before any row runs."""
    try:
        with open(path, encoding="utf-8") as fh:
            corpus = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"bad corpus file: {exc}") from exc
    entries = corpus.get("entries", []) if isinstance(corpus, dict) else None
    if not isinstance(entries, list):
        raise InputError("bad corpus file: not an object with a list of entries")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry or "file" not in entry:
            raise InputError(f"bad corpus file: entry {i} needs an id and a file")
        primes = entry.get("primes", [2])
        if not isinstance(primes, list) or not all(isinstance(p, int) and is_prime(p)
                                                   for p in primes):
            raise InputError(f"bad corpus file: entry {entry['id']!r} has primes {primes!r}")
    ids = [e["id"] for e in entries]
    if len(ids) != len(set(ids)):
        raise InputError("duplicate entry ids in corpus")
    return entries


def cmd_corpus(args) -> int:
    entries = _read_corpus(args.path)
    corpus_dir = os.path.dirname(os.path.abspath(args.path))
    jobs = []
    for entry in entries:
        for prime in entry.get("primes", [2]):
            jobs.append((entry, prime))
    row_of = functools.partial(_corpus_row, corpus_dir, _options(args))
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(row_of, *zip(*jobs)))
    else:
        rows = [row_of(e, p) for e, p in jobs]
    mismatches = 0
    hard_exit = EXIT_OK
    for (entry, prime), row in zip(jobs, rows):
        if row.get("error") is not None:
            mismatches += 1
            hard_exit = max(hard_exit, row.get("exit", EXIT_VIOLATION))
            row["mismatches"] = [f"error: {row['error']}"]
            continue
        bad = _check_expected(row, entry.get("expected", {}), prime)
        row["mismatches"] = bad
        if bad:
            mismatches += 1
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["id", "prime", "order", "gab", "h2", "qr", "harness", "millis"])
        for row in rows:
            w.writerow([
                row["id"], row["prime"], row.get("order", ""),
                "x".join(str(d) for d in row.get("gab", [])) or "1",
                "x".join(str(d) for d in row.get("h2", [])) or "1",
                {True: "QR", False: "not-QR"}.get(row.get("qr"), "error"),
                row.get("harness", "-"), row["millis"],
            ])
        _emit(buf.getvalue(), args.out)
    else:
        doc = {
            "schema": 1,
            "version": __version__,
            "mismatch_count": mismatches,
            "rows": [
                {k: v for k, v in row.items() if k != "millis" or args.timing}
                for row in rows
            ],
        }
        _emit(_json_dump(doc), args.out)
    if mismatches:
        sys.stderr.write(f"{mismatches} corpus mismatch(es)\n")
        return max(hard_exit, EXIT_VIOLATION)
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        pres = _read_presentation(args.path)
        tbl = todd_coxeter(pres, args.max_cosets)
        if args.which == "bar-h2":
            inv = bar_h2(tbl)
            doc = {"bar_h2": list(inv.torsion), "pretty": str(inv)}
        elif args.which == "delta-dims":
            p = args.prime[0] if args.prime else pres.primes[0]
            doc = {"prime": p, "delta_dims": delta_dimension_sequence(tbl, p)}
        else:
            subs = all_subgroups(tbl)
            doc = {
                "count": len(subs),
                "orders": sorted(s.order for s in subs),
            }
    except Exception as exc:  # noqa: BLE001 - single-purpose probes
        sys.stderr.write(f"{exc}\n")
        return _exit_code_for(exc)
    _emit(_json_dump(doc), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qrlab",
        description="quasirationality and permutation-module lab for finite presentations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def prime(sp):
        sp.add_argument("--prime", type=_prime, action="append",
                        help="prime to analyze (repeatable; default: from the file)")

    def common(sp):
        sp.add_argument("--max-cosets", type=_positive, default=DEFAULT_MAX_COSETS)
        sp.add_argument("--out", default=None, help="write the report here")

    def pipeline(sp):
        common(sp)
        sp.add_argument("--max-level", type=_positive, default=None,
                        help="stop the harness's level tower early")
        sp.add_argument("--timing", action="store_true",
                        help="include wall-clock timings in the JSON report")

    sp = sub.add_parser("check", help="full analysis of one presentation file")
    sp.add_argument("path")
    prime(sp)
    pipeline(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("corpus", help="run a corpus file and compare expectations")
    sp.add_argument("path")
    sp.add_argument("--jobs", type=_positive, default=1)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    pipeline(sp)
    sp.set_defaults(fn=cmd_corpus)

    sp = sub.add_parser("oracle", help="raw oracle outputs for cross-validation")
    sp.add_argument("which", choices=("bar-h2", "delta-dims", "subgroups"))
    sp.add_argument("path")
    prime(sp)
    common(sp)
    sp.set_defaults(fn=cmd_oracle)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:  # an unreadable corpus file or an unwritable --out
        sys.stderr.write(f"{exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
