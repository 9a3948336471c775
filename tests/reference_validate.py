"""The speedup-axiom decision as it stood before ``gpurental.speedup.validate``
decided on Python floats, kept verbatim as the oracle for tests only: numpy
arrays of the pairs and triples, a ``first_bad`` scan per axiom.  On every
speedup whose speeds at its ``axiom_ks`` are finite, the current
``validate`` must return an equal ``ValidationReport``.  Call it under
``np.errstate(all="ignore")``: it warns where a speed overflows.
"""

from __future__ import annotations

import numpy as np

from gpurental.speedup import REL_TOL, AxiomCheck, SpeedupFunction, ValidationReport


def _concavity_check(ks: np.ndarray, s: np.ndarray) -> AxiomCheck:
    """Concavity on consecutive triples: the value at each interior width
    must not fall below the chord through its neighbours."""
    lo, mid, hi = ks[:-2], ks[1:-1], ks[2:]
    theta = (hi - mid) / (hi - lo)
    chord = theta * s[:-2] + (1.0 - theta) * s[2:]
    deficit = chord - s[1:-1]
    scale = np.maximum(np.abs(s[:-2]), np.abs(s[2:]))
    bad = np.flatnonzero(deficit > REL_TOL * scale)
    if bad.size == 0:
        return AxiomCheck("concave", True)
    i = bad[0]
    return AxiomCheck(
        "concave",
        False,
        f"s({mid[i]:.6g}) = {s[1:-1][i]:.6g} < chord of "
        f"s({lo[i]:.6g}), s({hi[i]:.6g}) = {chord[i]:.6g}",
    )


def validate(f: SpeedupFunction) -> ValidationReport:
    """Decide the speedup axioms for all k >= 1 on the family's ``axiom_ks``:
    monotonicity and sub-linearity on consecutive pairs, concavity on
    consecutive triples.  Violations below REL_TOL, relative to the compared
    quantities (speeds, or for sub-linearity the average speeds s(k)/k), are
    ignored.
    """
    ks = np.array(f.axiom_ks())
    s = f(ks)
    a, b = ks[:-1], ks[1:]
    sa, sb = s[:-1], s[1:]

    def first_bad(lhs: np.ndarray, rhs: np.ndarray, fmt) -> AxiomCheck:
        # lhs should not fall below rhs, up to REL_TOL of their own size.
        bad = np.flatnonzero(rhs - lhs > REL_TOL * np.maximum(np.abs(lhs), np.abs(rhs)))
        if bad.size == 0:
            return AxiomCheck(fmt.__name__, True)
        i = bad[0]
        return AxiomCheck(fmt.__name__, False, fmt(a[i], sa[i], b[i], sb[i]))

    def monotone(ka, va, kb, vb):
        return f"s({ka:.6g}) = {va:.6g} > s({kb:.6g}) = {vb:.6g}"

    def sublinear(ka, va, kb, vb):
        return (
            f"s({ka:.6g})/{ka:.6g} = {va / ka:.6g} < "
            f"s({kb:.6g})/{kb:.6g} = {vb / kb:.6g}"
        )

    mono = first_bad(sb, sa, monotone)
    sub = first_bad(sa / a, sb / b, sublinear)
    conc = _concavity_check(ks, s)

    s1 = float(s[0])  # the widths start at 1
    norm = AxiomCheck("normalized", abs(s1 - 1.0) <= REL_TOL)
    if not norm.passed:
        norm = AxiomCheck("normalized", False, f"s(1) = {s1:.6g}, expected 1")
    return ValidationReport(mono, sub, conc, norm)
