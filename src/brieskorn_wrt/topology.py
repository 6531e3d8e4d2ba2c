"""Classical invariants: Casson, Chern-Simons spectrum, torsion, spectral flow.

One record per irreducible flat SU(2) connection (equivalently per lattice
triple passing the open-tetrahedron condition), carrying its Chern-Simons
value, Reidemeister torsion amplitude, spectral flow mod 8 and conjugacy
angles, plus the identity tying sqrt(2) times an S-matrix entry to torsion
and spectral flow.  ``flat_connections`` builds the records in one walk of
the admissible runs.  Chern-Simons values, conjugacy angles and spectral
flows are exact: the spectral flow is an integer over 12P^2 made of the
Dedekind numerator T = 12P sum_j s(c_j, p_j) (``chi.dedekind_triple_numerator``,
read by gamma, Casson and phi too) and per-call tables of integer sawtooth
convolutions.  Only the torsion amplitude is evaluated at the context
precision, from per-fibre ``exactmath.root_table`` rows built apart from the
S-matrix tables it is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
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


def _cs_window(t: int, four_p: int) -> Rational:
    """-t/4P mod 1, reported in (-1/2, 1/2]."""
    return Fraction(-t if 2 * t < four_p else four_p - t, four_p)


def chern_simons(p: BrieskornTriple, ell: EllTriple) -> Rational:
    """CS value -(P/4)(1 + sum l_j/p_j)^2 mod 1, reported in (-1/2, 1/2].

    With A = P + sum l_j c_j that is -(A^2 mod 4P) / 4P mod 1, read off ``t_numerator``.
    """
    return _cs_window(t_numerator(p, ell), 4 * p.P)


def _torsion_tables(p: BrieskornTriple) -> tuple:
    """(bits, 8/sqrt(P), per fibre j sin(pi k / p_j) for 0 <= k < p_j), integers over 2^bits.

    bits = prec + P.bit_length() in the caller's workdps().  The sines are the half row of
    one ``exactmath.root_table`` each, within 2 units of 2^-bits, and the
    scale is isqrt(64 4^bits / P), within 2 units below 8/sqrt(P) 2^bits.
    """
    bits = mp.prec + p.P.bit_length()
    rows = tuple(tuple(root_table(2 * pk, bits)) for pk in p.p)
    return bits, math.isqrt((64 << 2 * bits) // p.P), rows


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


def _spectral_flow_tables(p: BrieskornTriple) -> tuple:
    """(12P (-3 - 4 sum_j s(c_j, p_j)) = -36P - 4T, per fibre j K_j(e mod p_j) c_j^2 by residue)."""
    kernels = tuple(
        tuple(k * c * c for k in _sawtooth_kernel(c, pk)) for c, pk in zip(p.cofactors, p.p)
    )
    return -36 * p.P - 4 * dedekind_triple_numerator(p), kernels


def flat_connections(p: BrieskornTriple, ctx: PrecisionContext = DEFAULT_CONTEXT) -> list:
    """One record per admissible triple, in canonical enumeration order.

    One walk of the admissible runs (l1, l2, first..last): along a run
    A = P + sum_j l_j c_j steps up by c_3, c_j = P/p_j, and every value is
    read off A.  The CS value is -(A^2 mod 4P)/4P mod 1, as in
    ``chern_simons``, and the Euler number e = P sum_j (p_j - l_j)/p_j is
    sum_j (p_j - l_j) c_j = 3P - (A - P) = 4P - A, so e = -A mod p_j.

    Spectral flow mod 8, exactly.  The cotangent form -3 - 2e^2/P -
    sum_j (2/p_j) sum_k cot(pi k c_j/p_j) cot(pi k/p_j) sin^2(pi k e/p_j)
    becomes rational once sin^2 = (1 - cos)/2 is written out and the finite
    Fourier expansion of the sawtooth ((j/p)) is used (Rademacher-Grosswald,
    Dedekind Sums, ch. 2):

        SF = -3 - 2e^2/P - 4 sum_j s(c_j, p_j) - sum_j K_j(e)/p_j^2
           = ((-36P - 4T) P - 12 (2e^2 P + sum_j c_j^2 K_j(e))) / 12P^2,
        K_j(e) = sum_{i=1}^{p_j-1} (2i - p_j)(2r_i - p_j) [r_i != 0],

    r_i = c_j^{-1}(e - i) mod p_j.  K_j depends on e only through e mod p_j
    (``_spectral_flow_tables``), and c_3 = p_1 p_2, so the first two kernel
    entries are fixed along a run.  A fraction is a structural fault and
    raises; nothing is rounded.

    Torsion amplitude (8/sqrt(P)) prod_j |sin(pi c_j l_j / p_j)|: the scale
    times entries c_j l_j mod p_j of the ``_torsion_tables`` rows, the first
    two fixed along a run, over 2^(4 bits), rounded once in the working
    precision.  Bound: sin(pi k / p_j) >= 2/p_j for 0 < k < p_j, so an entry
    is within p_j 2^-bits of its sine relatively, and the scale within
    sqrt(P) 2^-bits / 4.  2^-bits < u / P, u = 2^-prec, so the exact product
    is within (p_1 + p_2 + p_3 + sqrt(P)/4) u / P < 0.4 u of the amplitude
    relatively, and the rounding adds u: the result is within 2 u of it.

    The conjugacy angles (p_j - l_j)/p_j are one table of Fractions per fibre.
    """
    (p1, p2, p3), (c1, c2, c3), big = p.p, p.cofactors, p.P
    four_p, denominator = 4 * big, 12 * big * big
    offset, (kernel1, kernel2, kernel3) = _spectral_flow_tables(p)
    angles1, angles2, angles3 = (tuple(Fraction(pk - l, pk) for l in range(pk)) for pk in p.p)
    records = []
    with ctx.workdps():
        bits, scale, (row1, row2, row3) = _torsion_tables(p)
        for l1, l2, first, last in admissible_triples(p)[0].runs:
            a = big + l1 * c1 + l2 * c2 + first * c3
            fixed = offset * big - 12 * (kernel1[-a % p1] + kernel2[-a % p2])
            head = scale * row1[c1 * l1 % p1] * row2[c2 * l2 % p2]
            angle1, angle2 = angles1[l1], angles2[l2]
            for l3 in range(first, last + 1):
                e = four_p - a
                numerator = fixed - 12 * (2 * e * e * big + kernel3[e % p3])
                if numerator % denominator:
                    total, ell = Fraction(numerator, denominator), (l1, l2, l3)
                    raise ArithmeticError(
                        f"spectral flow {total} is not an integer for p={p.p}, ell={ell}"
                    )
                cs = _cs_window(a * a % four_p, four_p)
                torsion = ensure_finite(mp.mpf((head * row3[c3 * l3 % p3], -4 * bits)))
                flow, angles = numerator // denominator % 8, (angle1, angle2, angles3[l3])
                record = FlatConnectionRecord(EllTriple(l1, l2, l3), cs, torsion, flow, angles)
                records.append(record)
                a += c3
    return records


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
