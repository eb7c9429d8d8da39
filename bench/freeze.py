#!/usr/bin/env python3
"""Recompute bench/inputs/expected.json, every value from two routes.

    python3 bench/freeze.py            # check: exit 1 if the file differs
    python3 bench/freeze.py --write    # rewrite the file

For each input: the order from Todd-Coxeter; G_ab; H2 from Hopf's formula
and from a second route (the bar resolution up to its order bound, else the
fact that a cyclic group has H2 = 0, where cyclicity is proven by |G_ab| =
|G| with one invariant factor); the QR verdict; the level count from
qr_check_full and from the Jennings recursion; and zero harness violations.
The number of unknown harness levels is deliberately not frozen: it is the
benchmark's unknown_levels metric and is expected to fall.  Takes about a
minute (c81 dominates).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import INPUTS_DIR, PRECISION, import_qrlab

INPUTS = (  # (id, file, workload)
    ("q32", "q32.pres", "harness32"),
    ("m32", "m32.pres", "harness32"),
    ("c64", "c64.pres", "cyclic-top"),
    ("c81", "c81.pres", "cyclic-top"),
)


def freeze_one(qrlab, ident: str, fname: str, workload: str) -> dict:
    from qrlab.relmod import DEFAULT_BAR_BOUND

    with open(os.path.join(INPUTS_DIR, fname), encoding="utf-8") as fh:
        pres = qrlab.parse_presentation(fh.read())
    (p,) = pres.primes
    tbl = qrlab.todd_coxeter(pres)
    gab = qrlab.gab_invariants(pres)
    hopf = list(qrlab.hopf_h2(qrlab.relation_lattice(pres, tbl)).torsion)
    if tbl.order <= DEFAULT_BAR_BOUND:
        second = ("bar_h2", list(qrlab.bar_h2(tbl).torsion))
    elif gab.free_rank == 0 and list(gab.torsion) == [tbl.order]:
        second = ("cyclic_group", [])
    else:
        raise SystemExit(f"{ident}: no second H2 route available")
    if second[1] != hopf:
        raise SystemExit(f"{ident}: H2 routes disagree: hopf {hopf} vs {second}")
    rep = qrlab.qr_check_full(pres, tbl, p)
    jennings = len(qrlab.jennings_series(tbl, p))
    if jennings != len(rep.levels):
        raise SystemExit(f"{ident}: {len(rep.levels)} levels but Jennings gives {jennings}")
    expected = {
        "order": tbl.order, "gab": list(gab.torsion), "h2": hopf,
        "qr": rep.quasirational, "levels": len(rep.levels),
    }
    if rep.quasirational:
        har = qrlab.equivalence_harness(pres, tbl, p, precision=PRECISION)
        if har.violations:
            raise SystemExit(f"{ident}: harness reports {har.violations} violations")
        expected["violations"] = 0
    return {
        "id": ident, "file": fname, "workload": workload, "prime": p,
        "expected": expected,
        "routes": {
            "h2": {"hopf_h2": hopf, second[0]: second[1]},
            "levels": {"qr_check_full": len(rep.levels), "jennings_series": jennings},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)
    qrlab = import_qrlab()
    doc = {"inputs": [freeze_one(qrlab, *row) for row in INPUTS]}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    path = os.path.join(INPUTS_DIR, "expected.json")
    if args.write:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return 0
    with open(path, encoding="utf-8") as fh:
        same = fh.read() == text
    print("expected.json is current" if same else "expected.json differs")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
