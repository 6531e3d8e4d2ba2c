"""Classical invariants: Casson, Chern-Simons spectrum, torsion, spectral flow.

One record per irreducible flat SU(2) connection (equivalently per lattice
triple passing the open-tetrahedron condition), carrying its Chern-Simons
value, Reidemeister torsion amplitude, spectral flow mod 8 and conjugacy
angles, plus the identity tying sqrt(2) times an S-matrix entry to torsion
and spectral flow.  Chern-Simons values, conjugacy angles and spectral flows
are exact rationals and integers; the spectral flow comes from an integer
sawtooth convolution plus Dedekind sums, so no floating sum is rounded to
an integer anywhere.  Only the torsion amplitude is evaluated at the
context precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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


@lru_cache(maxsize=128)
def _spectral_flow_offset(p: BrieskornTriple) -> Rational:
    """-3 - 4 sum_j s(c_j, p_j), the part of the spectral flow shared by all ell."""
    return -3 - 4 * _dedekind_triple_sum(p)


def spectral_flow(p: BrieskornTriple, ell: EllTriple) -> int:
    """Spectral flow mod 8, exactly, in integer arithmetic.

    The cotangent form -3 - 2e^2/P - sum_j (2/p_j) sum_k cot(pi k c_j/p_j)
    cot(pi k/p_j) sin^2(pi k e/p_j), with e the Euler number and
    c_j = P/p_j, becomes rational once sin^2 = (1 - cos)/2 is written out
    and the finite Fourier expansion of the sawtooth ((j/p)) is used
    (Rademacher-Grosswald, Dedekind Sums, ch. 2):

        SF = -3 - 2e^2/P - 4 sum_j s(c_j, p_j) - sum_j K_j(e)/p_j^2,
        K_j(e) = sum_{i=1}^{p_j-1} (2i - p_j)(2r_i - p_j) [r_i != 0],

    where r_i = c_j^{-1}(e - i) mod p_j.  Each K_j is an O(p_j) integer sum;
    the Dedekind sums, O(log p_j) each, are shared by every ell of a manifold.
    The total must be an integer: a fraction is a structural fault and
    raises, nothing is rounded.
    """
    e = euler_number(p, ell)
    total = _spectral_flow_offset(p) - Fraction(2 * e * e, p.P)
    for c, pk in zip(p.cofactors, p.p):
        c_inv = pow(c, -1, pk)
        kernel = 0
        for i in range(1, pk):
            r = c_inv * (e - i) % pk
            if r:
                kernel += (2 * i - pk) * (2 * r - pk)
        total -= Fraction(kernel, pk * pk)
    if total.denominator != 1:
        raise ArithmeticError(
            f"spectral flow {total} is not an integer for p={p.p}, ell={ell.ell}"
        )
    return total.numerator % 8


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
                spectral_flow=spectral_flow(p, ell),
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
