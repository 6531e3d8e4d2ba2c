"""Classical invariants: Casson, Chern-Simons spectrum, torsion, spectral flow.

One record per irreducible flat SU(2) connection (equivalently per lattice
triple passing the open-tetrahedron condition), carrying its Chern-Simons
value, Reidemeister torsion amplitude, spectral flow mod 8 and conjugacy
angles, plus the identity tying sqrt(2) times an S-matrix entry to torsion
and spectral flow.  Chern-Simons values, conjugacy angles and spectral flows
are exact: the Chern-Simons value is an integer numerator over 4P
(``chi.t_numerator``), the spectral flow an integer over 12P^2 made of the
Dedekind numerator T = 12P sum_j s(c_j, p_j) (``chi.dedekind_triple_numerator``,
read by gamma, Casson and phi too) and per-manifold tables of integer sawtooth
convolutions, so no floating sum is rounded to an integer.  Only the torsion
amplitude is evaluated at the context precision: the integer product of
isqrt(64 4^bits / P) and entries of per-fibre ``exactmath.root_table`` rows
of sin(pi k / p_j), built apart from the S-matrix tables it is checked
against, rounded once.  ``flat_connections`` enters the working precision
and builds those rows once per call, and reads each record's conjugacy
angles off one table of shared Fractions per fibre.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from mpmath import mp

from .chi import (
    BrieskornTriple,
    EllTriple,
    admissible_triples,
    dedekind_triple_numerator,
    gamma_closed_form,
    t_numerator,
)
from .exactmath import DEFAULT_CONTEXT, PrecisionContext, Rational, ensure_finite, root_table
from .modularform import modular_data


class FlatConnectionRecord(NamedTuple):
    """Stationary-phase data of one irreducible flat connection."""

    triple: EllTriple
    cs: Rational
    torsion_sqrt: object
    spectral_flow: int
    conjugacy_angles: tuple


def phi_invariant(p: BrieskornTriple) -> Rational:
    """Framing correction 3 - 1/P + 12 sum_k s(c_k, p_k) = (3P - 1 + T)/P."""
    return Fraction(3 * p.P - 1 + dedekind_triple_numerator(p), p.P)


def casson(p: BrieskornTriple) -> Rational:
    """Casson invariant, exact; equals minus half the admissible-triple count.

    The Dedekind-sum formula for the Casson invariant is -1/2 times the
    closed form for gamma, term by term.
    """
    return -gamma_closed_form(p) / 2


def chern_simons(p: BrieskornTriple, ell: EllTriple) -> Rational:
    """CS value -(P/4)(1 + sum l_j/p_j)^2 mod 1, reported in (-1/2, 1/2].

    With A = P + sum l_j c_j that is -(A^2 mod 4P) / 4P mod 1, read off ``t_numerator``.
    """
    t, four_p = t_numerator(p, ell), 4 * p.P
    return Fraction(-t if 2 * t < four_p else four_p - t, four_p)


def euler_number(p: BrieskornTriple, ell: EllTriple) -> int:
    """The integer e = P * sum (p_j - l_j)/p_j entering the spectral flow."""
    return sum((pk - l) * c for l, pk, c in zip(ell, p.p, p.cofactors))


def _torsion_tables(p: BrieskornTriple) -> tuple:
    """(bits, 8/sqrt(P), per fibre j sin(pi k / p_j) for 0 <= k < p_j), integers over 2^bits.

    bits = prec + P.bit_length() in the caller's workdps().  The sines are the half row of
    one ``exactmath.root_table`` each, within 2 units of 2^-bits, and the
    scale is isqrt(64 4^bits / P), within 2 units below 8/sqrt(P) 2^bits.
    """
    bits = mp.prec + p.P.bit_length()
    rows = tuple(tuple(root_table(2 * pk, bits)) for pk in p.p)
    return bits, math.isqrt((64 << 2 * bits) // p.P), rows


def _torsion_amplitude(p: BrieskornTriple, tables: tuple, ell: EllTriple):
    """Reidemeister torsion amplitude (8/sqrt(P)) prod |sin(P l_j pi / p_j^2)|.

    P l_j / p_j^2 = c_j l_j / p_j, and |sin(pi x)| has period 1, so the j-th
    factor is entry c_j l_j mod p_j of the j-th ``_torsion_tables`` row; their
    integer product with the scale, over 2^(4 bits), is rounded once in the
    caller's workdps().

    Bound.  A sine sin(pi k / p_j), 0 < k < p_j, is at least 2/p_j, so its
    row entry is within p_j 2^-bits of it relatively, and the scale within
    sqrt(P) 2^-bits / 4.  2^-bits < u / P, u = 2^-prec, so the exact product
    is within (p_1 + p_2 + p_3 + sqrt(P)/4) u / P < 0.4 u of the amplitude
    relatively, and the one rounding adds u: the result is within 2 u times
    the amplitude.
    """
    bits, scale, (row1, row2, row3) = tables
    (l1, l2, l3), (p1, p2, p3), (c1, c2, c3) = ell, p.p, p.cofactors
    product = scale * row1[c1 * l1 % p1] * row2[c2 * l2 % p2] * row3[c3 * l3 % p3]
    return ensure_finite(mp.mpf((product, -4 * bits)))


def _sawtooth_kernel(c: int, pk: int) -> tuple:
    """K(e) for every residue e mod pk, in O(pk) integers.

    K(e) = sum_i f(i) g(e - i) over i mod pk, with f(x) = 2x - pk for
    0 < x < pk, f(0) = 0 and g(x) = f(c^{-1} x mod pk).  Then
    K(e + 1) - K(e) = sum_i (f(i + 1) - f(i)) g(e - i), where f(i + 1) - f(i)
    is 2, less pk at i = 0 and at i = pk - 1; g sums to 0 like f, so
    K(e + 1) = K(e) - pk (g(e) + g(e + 1)).
    """
    c_inv = pow(c, -1, pk)
    g = [2 * (c_inv * x % pk) - pk if x % pk else 0 for x in range(pk + 1)]
    kernel = [sum((2 * i - pk) * g[-i % pk] for i in range(1, pk))]
    for e in range(pk - 1):
        kernel.append(kernel[-1] - pk * (g[e] + g[e + 1]))
    return tuple(kernel)


@lru_cache(maxsize=128)
def _spectral_flow_tables(p: BrieskornTriple) -> tuple:
    """(12P (-3 - 4 sum_j s(c_j, p_j)) = -36P - 4T, per fibre j K_j(e mod p_j) c_j^2 by residue)."""
    kernels = tuple(
        tuple(k * c * c for k in _sawtooth_kernel(c, pk)) for c, pk in zip(p.cofactors, p.p)
    )
    return -36 * p.P - 4 * dedekind_triple_numerator(p), kernels


def spectral_flow(p: BrieskornTriple, ell: EllTriple) -> int:
    """Spectral flow mod 8, exactly, in integer arithmetic.

    The cotangent form -3 - 2e^2/P - sum_j (2/p_j) sum_k cot(pi k c_j/p_j)
    cot(pi k/p_j) sin^2(pi k e/p_j), with e the Euler number and
    c_j = P/p_j, becomes rational once sin^2 = (1 - cos)/2 is written out
    and the finite Fourier expansion of the sawtooth ((j/p)) is used
    (Rademacher-Grosswald, Dedekind Sums, ch. 2):

        SF = -3 - 2e^2/P - 4 sum_j s(c_j, p_j) - sum_j K_j(e)/p_j^2,
        K_j(e) = sum_{i=1}^{p_j-1} (2i - p_j)(2r_i - p_j) [r_i != 0],

    where r_i = c_j^{-1}(e - i) mod p_j.  K_j depends on e only through
    e mod p_j; ``_spectral_flow_tables`` holds it for every residue, built in
    O(p_j) integers, beside the integer offset 12P(-3 - 4 sum_j s(c_j, p_j)) =
    -36P - 4T, so each ell costs three table reads and

        SF = ((-36P - 4T) P - 12 (2e^2 P + sum_j c_j^2 K_j(e))) / 12P^2.

    That must be an integer: a fraction is a structural fault and raises,
    nothing is rounded.
    """
    e = euler_number(p, ell)
    offset, kernels = _spectral_flow_tables(p)
    scaled = 2 * e * e * p.P + sum(table[e % pk] for table, pk in zip(kernels, p.p))
    # offset / 12P - scaled / P^2 over the denominator 12P^2
    denominator = 12 * p.P * p.P
    numerator = offset * p.P - 12 * scaled
    if numerator % denominator:
        total, ell = Fraction(numerator, denominator), tuple(ell)
        raise ArithmeticError(f"spectral flow {total} is not an integer for p={p.p}, ell={ell}")
    return numerator // denominator % 8


def flat_connections(p: BrieskornTriple, ctx: PrecisionContext = DEFAULT_CONTEXT) -> list:
    """One record per admissible triple, in canonical enumeration order.

    The working precision is entered and the torsion tables built once; each
    amplitude is one rounding of table integers (``_torsion_amplitude``), and
    the angles are read off one table of (p_j - l)/p_j per fibre, built per call.
    """
    angles = tuple(tuple(Fraction(pk - l, pk) for l in range(pk)) for pk in p.p)
    with ctx.workdps():
        tables = _torsion_tables(p)
        return [
            FlatConnectionRecord(
                triple=ell,
                cs=chern_simons(p, ell),
                torsion_sqrt=_torsion_amplitude(p, tables, ell),
                spectral_flow=spectral_flow(p, ell),
                conjugacy_angles=tuple(row[l] for row, l in zip(angles, ell)),
            )
            for ell in admissible_triples(p)[0]
        ]


def verify_s_torsion(p: BrieskornTriple, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Max over flat connections of |sqrt(2) S[(1,1,1)][l] - sqrt(T) e^{-pi i I/2}|."""
    md = modular_data(p, ctx)
    base = EllTriple(1, 1, 1)
    with ctx.workdps():
        root2, worst = mp.sqrt(2), mp.mpf(0)
        phases = (mp.mpc(1), mp.mpc(0, -1), mp.mpc(-1), mp.mpc(0, 1))  # e^{-pi i SF/2}
        for record in flat_connections(p, ctx):
            s_val = md.s_value(base, record.triple)
            phase = phases[record.spectral_flow % 4]
            worst = max(worst, abs(root2 * s_val - record.torsion_sqrt * phase))
        return ensure_finite(+worst)
