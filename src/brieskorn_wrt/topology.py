"""Classical invariants: Casson, Chern-Simons spectrum, torsion, spectral flow.

One record per irreducible flat SU(2) connection (equivalently per lattice
triple passing the open-tetrahedron condition), carrying its Chern-Simons
value, Reidemeister torsion amplitude, spectral flow mod 8 and conjugacy
angles, plus the identity tying sqrt(2) times an S-matrix entry to torsion
and spectral flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .chi import (
    BrieskornTriple,
    EllTriple,
    _dedekind_triple_sum,
    admissible_triples,
    gamma_closed_form,
)
from .exactmath import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    Rational,
    ensure_finite,
    to_mpf,
)
from .modularform import modular_data, t_exponent

# Spectral-flow totals mix transcendental cotangent sums that must conspire
# to an integer; the snap window is fixed, not precision-dependent.
SPECTRAL_SNAP_TOLERANCE = 1e-10


class SpectralFlowPrecisionError(ArithmeticError):
    """Cotangent sum failed to land near an integer; refusing to round."""


@dataclass(frozen=True)
class FlatConnectionRecord:
    """Stationary-phase data of one irreducible flat connection."""

    triple: EllTriple
    cs: Rational
    torsion_sqrt: object
    spectral_flow: int
    conjugacy_angles: tuple


def phi_invariant(p: BrieskornTriple) -> Rational:
    """Framing correction 3 - 1/P + 12(s(p2 p3, p1) + s(p1 p3, p2) + s(p1 p2, p3))."""
    return 3 - Fraction(1, p.P) + 12 * _dedekind_triple_sum(p)


def casson(p: BrieskornTriple) -> Rational:
    """Casson invariant, exact; equals minus half the admissible-triple count.

    The Dedekind-sum formula for the Casson invariant is -1/2 times the
    closed form for gamma, term by term.
    """
    return -gamma_closed_form(p) / 2


def chern_simons(p: BrieskornTriple, ell: EllTriple) -> Rational:
    """CS value -(P/4)(1 + sum l_j/p_j)^2 mod 1, reported in (-1/2, 1/2]."""
    cs = (-t_exponent(p, ell) / 2) % 1
    if cs > Fraction(1, 2):
        cs -= 1
    return cs


def conjugacy_angles(p: BrieskornTriple, ell: EllTriple) -> tuple:
    """Rotation numbers (p_k - l_k)/p_k of the three generator images."""
    return tuple(Fraction(pk - l, pk) for l, pk in zip(ell.ell, p.p))


def euler_number(p: BrieskornTriple, ell: EllTriple) -> int:
    """The integer e = P * sum (p_j - l_j)/p_j entering the spectral flow."""
    return sum((pk - l) * c for l, pk, c in zip(ell.ell, p.p, p.cofactors))


def torsion_sqrt(
    p: BrieskornTriple, ell: EllTriple, ctx: PrecisionContext = DEFAULT_CONTEXT
):
    """Reidemeister torsion amplitude (8/sqrt(P)) prod |sin(P l_j pi / p_j^2)|."""
    with ctx.workdps():
        value = 8 / mp.sqrt(mp.mpf(p.P))
        for l, pk in zip(ell.ell, p.p):
            value *= abs(mp.sinpi(to_mpf(Fraction(p.P * l, pk * pk) % 2)))
        return ensure_finite(+value)


def spectral_flow(
    p: BrieskornTriple, ell: EllTriple, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> int:
    """Spectral flow mod 8 via the cotangent sum, integer-snapped.

    The rational part 2 e^2 / P is exact; the remaining double sum is
    evaluated at context precision and the total must land within
    SPECTRAL_SNAP_TOLERANCE of an integer, else an error is raised rather
    than silently rounding.
    """
    e = euler_number(p, ell)
    rational_part = Fraction(2 * e * e, p.P)
    with ctx.workdps():
        cot_total = mp.mpf(0)
        for pk in p.p:
            inner = mp.mpf(0)
            for k in range(1, pk):
                a1 = Fraction(k * p.P, pk * pk) % 1
                if a1 == 0:
                    raise ArithmeticError(
                        f"cotangent argument {k}*P/{pk}^2 is integral for p={p.p}"
                    )
                a2 = Fraction(k, pk) % 1
                s = mp.sinpi(to_mpf(Fraction(k * e, pk) % 1))
                inner += (
                    (mp.cospi(to_mpf(a1)) / mp.sinpi(to_mpf(a1)))
                    * (mp.cospi(to_mpf(a2)) / mp.sinpi(to_mpf(a2)))
                    * s
                    * s
                )
            cot_total += 2 * inner / pk
        total = -3 - (to_mpf(rational_part) + cot_total)
        snapped = int(mp.nint(total))
        if abs(total - snapped) > SPECTRAL_SNAP_TOLERANCE:
            raise SpectralFlowPrecisionError(
                f"spectral flow sum {mp.nstr(total, 25)} is not near an integer "
                f"for p={p.p}, ell={ell.ell}"
            )
    return snapped % 8


def flat_connections(
    p: BrieskornTriple, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> list:
    """One record per admissible triple, in canonical enumeration order."""
    records = []
    for ell in admissible_triples(p)[0]:
        records.append(
            FlatConnectionRecord(
                triple=ell,
                cs=chern_simons(p, ell),
                torsion_sqrt=torsion_sqrt(p, ell, ctx),
                spectral_flow=spectral_flow(p, ell, ctx),
                conjugacy_angles=conjugacy_angles(p, ell),
            )
        )
    return records


def verify_s_torsion(p: BrieskornTriple, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Max over flat connections of |sqrt(2) S[(1,1,1)][l] - sqrt(T) e^{-pi i I/2}|."""
    md = modular_data(p, ctx)
    base = EllTriple(1, 1, 1)
    with ctx.workdps():
        worst = mp.mpf(0)
        for record in flat_connections(p, ctx):
            s_val = md.s_value(base, record.triple)
            phase = mp.expjpi(to_mpf(Fraction(-record.spectral_flow, 2) % 2))
            residual = abs(mp.sqrt(mp.mpf(2)) * s_val - record.torsion_sqrt * phase)
            worst = max(worst, residual)
        return ensure_finite(+worst)
