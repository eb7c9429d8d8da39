"""The whole pipeline on one presentation, each invariant built once.

enumerate -> relation lattice -> G_ab -> H2 by Hopf and by the bar route,
compared once -> per prime, the QR verdict and on QR input the harness.
One lattice serves Hopf's formula and every prime, and so do its
G-coinvariants R/[R,F] (RelationLattice.g_coin), which are level 1 of
every prime's tower.  Each prime reads one p-local level off the lattice
per other distinct dimension subgroup, and the harness reads its chain
and levels from the QR report and lifts over Z/p^k with k = 1 + v_p(|G|),
where its verdicts hold over Z_p.  The bar route runs only up to order
BAR_BOUND; above it the h2 stage fails with BudgetExceeded, after Hopf's
formula and before any verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .enumeration import DEFAULT_MAX_COSETS, FiniteGroupTable, todd_coxeter
from .errors import BudgetExceeded, PropertyViolation
from .intlinalg import AbelianInvariants
from .permrec import HarnessReport, tower_harness
from .presentation import Presentation
from .relmod import (
    QRReport,
    RelationLattice,
    bar_h2,
    gab_invariants,
    hopf_h2,
    qr_check,
    relation_lattice,
)

BAR_BOUND = 32


@dataclass
class Analysis:
    """What analyze() computed; a field left None was not reached.

    timing_ms: milliseconds per stage (enumerate, lattice, h2_hopf, h2_bar,
    qr_<p>, harness_<p>).  A failed stage (enumerate, lattice, h2, qr[<p>]
    or harness[<p>]) is named in failed_stage, its exception kept in error.
    """

    pres: Presentation
    primes: tuple[int, ...]
    tbl: FiniteGroupTable | None = None
    rlat: RelationLattice | None = None
    gab: AbelianInvariants | None = None
    h2_hopf: AbelianInvariants | None = None
    h2_bar: AbelianInvariants | None = None
    qr: dict[int, QRReport] = field(default_factory=dict)
    harness: dict[int, HarnessReport] = field(default_factory=dict)
    timing_ms: dict[str, int] = field(default_factory=dict)
    failed_stage: str | None = None
    error: Exception | None = None


def analyze(pres: Presentation, primes, *, max_cosets: int = DEFAULT_MAX_COSETS,
            max_level: int | None = None) -> Analysis:
    """Run the pipeline at each distinct prime; never raises for a failing stage."""
    rep = Analysis(pres, tuple(dict.fromkeys(primes)))

    def clock(key, fn):
        t0 = time.monotonic()
        try:
            return fn()
        finally:
            rep.timing_ms[key] = int((time.monotonic() - t0) * 1000)

    stage = "enumerate"
    try:
        tbl = rep.tbl = clock("enumerate", lambda: todd_coxeter(pres, max_cosets))
        stage = "lattice"
        rlat = rep.rlat = clock("lattice", lambda: relation_lattice(pres, tbl))
        rep.gab = gab_invariants(pres)
        stage = "h2"
        hop = clock("h2_hopf", lambda: hopf_h2(rlat))
        if tbl.order > BAR_BOUND:
            raise BudgetExceeded(
                f"bar resolution bound {BAR_BOUND} exceeded (order {tbl.order})")
        bar = clock("h2_bar", lambda: bar_h2(tbl))
        if (hop.free_rank, hop.torsion) != (bar.free_rank, bar.torsion):
            raise PropertyViolation(f"H2 routes disagree: {hop} vs {bar}")
        rep.h2_hopf, rep.h2_bar = hop, bar
        for p in rep.primes:
            stage = f"qr[{p}]"
            qr = rep.qr[p] = clock(f"qr_{p}", lambda: qr_check(rlat, p))
            if qr.quasirational:
                stage = f"harness[{p}]"
                rep.harness[p] = clock(f"harness_{p}", lambda: tower_harness(
                    qr, max_level=max_level))
    except Exception as exc:  # noqa: BLE001 - every failure becomes a report
        rep.failed_stage, rep.error = stage, exc
    return rep
