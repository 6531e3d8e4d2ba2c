"""Brieskorn parameters, odd periodic sign functions and their L-values.

The triple (p1, p2, p3) of pairwise coprime integers determines a family of
odd periodic functions chi with period 2*P, supported on eight residues.
These drive everything else: theta series, Eichler integrals, quantum
invariants and the perturbative series.

Both lattice-triple sets are held as runs of l3 (``EllRuns``), one per
canonical (l1, l2): the D canonical triples (``enumerate_triples``), which
label the theta vector and S, and the gamma admissible triples
(``admissible_triples``), one per irreducible flat connection, whose l3 form
one interval per pair.  So a set costs O(p1 p2), never D or gamma, until it
is iterated.  ``admissible_count`` is the admissible runs' count, the one
route to gamma.  ``l_value_ratios`` gives each L-value L(-2k, chi) as one
exact integer ratio, every k from one pass over the moments of chi's
eight-point support; ``modularform.eichler_tail`` reads them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product, repeat
from typing import NamedTuple

from .exactmath import _scaled_dedekind_sum, even_bernoulli_numbers

COPRIMALITY_ERROR = "p must be pairwise coprime"


class BrieskornTriple:
    """Validated Seifert parameters of a Brieskorn homology sphere.

    Components are sorted ascending on construction.  Derived data: the
    product P, the representation count D = (p1-1)(p2-1)(p3-1)/4, the
    cofactors P/p_k, and the flag marking the unique triple (2, 3, 5) whose
    reciprocals sum above 1.  Instances are immutable and compare and hash by
    ``p``; P, D and the cofactors are filled in by the constructor.
    """

    def __init__(self, p1: int, p2: int, p3: int) -> None:
        p1, p2, p3 = sorted((p1, p2, p3))
        if p1 < 2:
            raise ValueError("each p_i must be at least 2")
        if math.gcd(p1, p2) != 1 or math.gcd(p1, p3) != 1 or math.gcd(p2, p3) != 1:
            raise ValueError(COPRIMALITY_ERROR)
        big_p, num = p1 * p2 * p3, (p1 - 1) * (p2 - 1) * (p3 - 1)
        if num % 4:  # never for a pairwise coprime triple: at most one p_k is even
            raise ArithmeticError(f"4 must divide (p1-1)(p2-1)(p3-1) for {(p1, p2, p3)}")
        cofactors = (big_p // p1, big_p // p2, big_p // p3)
        self.__dict__.update(p1=p1, p2=p2, p3=p3, P=big_p, D=num // 4, cofactors=cofactors)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p1, self.p2, self.p3) == (other.p1, other.p2, other.p3)

    def __hash__(self) -> int:
        return hash((self.p1, self.p2, self.p3))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(p1={self.p1!r}, p2={self.p2!r}, p3={self.p3!r})"

    @property
    def p(self) -> tuple:
        return (self.p1, self.p2, self.p3)

    @property
    def is_poincare(self) -> bool:
        flag = self.p == (2, 3, 5)
        # (2,3,5) is the only pairwise coprime triple with 1/p1+1/p2+1/p3 > 1,
        # i.e. with cofactor sum above P.
        if flag != (sum(self.cofactors) > self.P):
            raise ArithmeticError(f"reciprocal sum of {self.p} contradicts is_poincare")
        return flag

    def __str__(self) -> str:
        return f"Sigma({self.p1},{self.p2},{self.p3})"


class EllTriple(NamedTuple):
    """Lattice triple (l1, l2, l3) with 1 <= l_j <= p_j - 1, equal to that plain tuple."""

    l1: int
    l2: int
    l3: int


def _check_range(p: BrieskornTriple, ell: EllTriple) -> None:
    for l, pk in zip(ell, p.p):
        if not 1 <= l <= pk - 1:
            raise ValueError(f"ell out of range for {p}: {tuple(ell)}")


def orbit(p: BrieskornTriple, ell: EllTriple) -> tuple:
    """The four sign-flip companions sharing one periodic function."""
    _check_range(p, ell)
    l1, l2, l3 = ell
    p1, p2, p3 = p.p
    return (
        EllTriple(l1, l2, l3),
        EllTriple(l1, p2 - l2, p3 - l3),
        EllTriple(p1 - l1, l2, p3 - l3),
        EllTriple(p1 - l1, p2 - l2, l3),
    )


def canonicalize(p: BrieskornTriple, ell: EllTriple) -> EllTriple:
    """Lexicographically least member of the orbit of ``ell``."""
    return min(orbit(p, ell))


def _canonical_pairs(p: BrieskornTriple):
    """Yield (l1, l2, top): canonical representatives are (l1, l2, l3), 1 <= l3 < top.

    The orbit least member has 2*l1 <= p1 and 2*l2 <= p2.  A tie 2*l1 = p1
    (p1 even) leaves both later coordinates free to flip, and a tie 2*l2 = p2
    (p2 even) leaves l3 free to flip; either way 2*l3 < p3, since p3 is then
    odd.  Otherwise l3 is unrestricted.  The range lengths top - 1 must add
    up to D, or ArithmeticError is raised once the pairs are exhausted.
    """
    p1, p2, p3 = p.p
    canonical = 0
    for l1 in range(1, p1 // 2 + 1):
        for l2 in range(1, p2 // 2 + 1):
            top = p3 // 2 + 1 if 2 * l1 == p1 or 2 * l2 == p2 else p3
            canonical += top - 1
            yield l1, l2, top
    if canonical != p.D:
        raise ArithmeticError(f"{canonical} canonical triples for {p}, expected D={p.D}")


class EllRuns:
    """The EllTriples of runs (l1, l2, first, last), first <= l3 <= last.

    Only ``runs`` and their total length ``count`` are held, so ``len`` is
    O(1) and iteration streams the runs; ``tuple(view)`` lists the triples.
    """

    __slots__ = ("runs", "count")

    def __init__(self, runs) -> None:
        self.runs = tuple(runs)
        self.count = sum(last - first + 1 for _, _, first, last in self.runs)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        # EllTriple(...) and EllTriple._make each run one Python frame per triple;
        # tuple.__new__ over zipped entries builds the same EllTriple without one
        return chain.from_iterable(
            map(tuple.__new__, repeat(EllTriple), zip(repeat(l1), repeat(l2), range(lo, hi + 1)))
            for l1, l2, lo, hi in self.runs
        )


def enumerate_triples(p: BrieskornTriple) -> EllRuns:
    """All D canonical representatives, sorted, as one run per canonical (l1, l2)."""
    return EllRuns((l1, l2, 1, top - 1) for l1, l2, top in _canonical_pairs(p))


class PeriodicChi(NamedTuple):
    """Odd periodic sign function of period 2*P with eight-point support.

    ``signed_support`` lists the eight (residue, sign) pairs, sorted by
    residue in [0, 2P); chi vanishes at every other residue.  Nothing of
    size P is stored.
    """

    modulus: int
    signed_support: tuple


@lru_cache(maxsize=4096)
def build_chi(p: BrieskornTriple, ell: EllTriple) -> PeriodicChi:
    """Construct chi for (p, ell): value -prod(eps) at P(1 + sum eps_j l_j/p_j).

    The eight epsilon assignments must land on eight distinct residues mod 2P;
    a collision would break oddness and raises ArithmeticError.
    """
    _check_range(p, ell)
    two_p = 2 * p.P
    values = {}
    for eps in product((1, -1), repeat=3):
        residue = (p.P + sum(e * l * c for e, l, c in zip(eps, ell, p.cofactors))) % two_p
        sign = -eps[0] * eps[1] * eps[2]
        if residue in values:
            raise ArithmeticError(
                f"epsilon residues collide for p={p.p}, ell={tuple(ell)} at {residue}"
            )
        values[residue] = sign
    # oddness and zero mean are structural; verify once at construction
    if any(values.get(-r % two_p) != -sign for r, sign in values.items()):
        raise ArithmeticError(f"chi is not odd for p={p.p}, ell={tuple(ell)}")
    if sum(values.values()):
        raise ArithmeticError(f"chi has non-zero mean for p={p.p}, ell={tuple(ell)}")
    return PeriodicChi(two_p, tuple(sorted(values.items())))


def t_numerator(p: BrieskornTriple, ell: EllTriple) -> int:
    """A^2 mod 4P, A = P + sum l_k c_k: the T-exponent over 2P, minus the CS value over 4P."""
    a = p.P + sum(l * c for l, c in zip(ell, p.cofactors))
    return a * a % (4 * p.P)


def _admissible_runs(p: BrieskornTriple):
    """Yield (l1, l2, first, last): the admissible l3 of each canonical (l1, l2).

    With a_k = l_k * P/p_k, s = a1 + a2 and gap = |a1 - a2| the inequalities
    read P < s + a3 < 3P, |gap +- a3| < P and |s - a3| < P, each linear in
    a3 = l3 * p1 * p2, so the admissible l3 form one interval, cut to the
    canonical range 1 <= l3 < top of ``_canonical_pairs``.  A canonical pair
    has 2 l1 <= p1 and 2 l2 <= p2, never both tied, so s < P; then only
    P - s < a3 < P - gap can bind.  Only non-empty runs are yielded.
    """
    big = p.P
    c1, c2, c3 = p.cofactors
    for l1, l2, top in _canonical_pairs(p):
        a1, a2 = l1 * c1, l2 * c2
        first = max(1, (big - a1 - a2) // c3 + 1)
        last = min(top - 1, (big - abs(a1 - a2) - 1) // c3)
        if first <= last:
            yield l1, l2, first, last


def admissible_triples(p: BrieskornTriple) -> tuple:
    """(canonical triples satisfying the open inequalities, their count gamma).

    The triples are an ``EllRuns`` over the runs of ``_admissible_runs``,
    which are read here, so the D-count check of ``_canonical_pairs`` runs on
    every call.  The runs and gamma cost O(p1 p2) integer steps, not O(gamma).
    """
    triples = EllRuns(_admissible_runs(p))
    return triples, triples.count


def admissible_count(p: BrieskornTriple) -> int:
    """gamma, the number of admissible canonical triples: the count of their runs."""
    return admissible_triples(p)[1]


def dedekind_triple_numerator(p: BrieskornTriple) -> int:
    """T = 12P sum_k s(c_k, p_k), c_k = P/p_k: the Dedekind datum of gamma, Casson, phi and SF.

    Each 12 p_k s(c_k, p_k) is the integer F(c_k mod p_k, p_k) of
    ``exactmath._scaled_dedekind_sum``; c_k and p_k are coprime.
    """
    return sum(c * _scaled_dedekind_sum(c % pk, pk) for c, pk in zip(p.cofactors, p.p))


def gamma_closed_form(p: BrieskornTriple) -> Fraction:
    """Dedekind-sum expression for the count of non-vanishing limits.

    gamma = sum_k s(c_k, p_k) + (P/12)(1 - sum_k 1/p_k^2) - 1/(12P) + 1/4, which
    over 12P is the integer T + P^2 - sum_k c_k^2 + 3P - 1.
    """
    squares = sum(c * c for c in p.cofactors)
    return Fraction(dedekind_triple_numerator(p) + p.P * p.P + 3 * p.P - 1 - squares, 12 * p.P)


def mordell_count(p: BrieskornTriple) -> int:
    """Lattice points with 0 < l_k < p_k and sum l_k/p_k < 1, counted directly."""
    c1, c2, c3 = p.cofactors
    count = 0
    for l1 in range(1, p.p1):
        for l2 in range(1, p.p2):
            # rest = P(1 - l1/p1 - l2/p2); l3 counts when l3 * c3 < rest,
            # which also keeps l3 < p3 since rest < P
            rest = p.P - l1 * c1 - l2 * c2
            if rest <= c3:
                break
            count += (rest - 1) // c3
    return count


def l_value_ratios(chi: PeriodicChi, ks) -> list:
    """(numerator, denominator) with L(-2k, chi) = numerator / denominator, for each k in ks.

    From the integer power moments M_j = sum_r chi(r) r^j of the eight-point
    support.  With n = 2k + 1 and Q = 2P, expanding
    B_n(x) = sum_i C(n, i) B_i x^(n-i) at x = r/Q gives
    L(-2k, chi) = -(M_n/Q + sum_{i>=1} C(n, i) B_i Q^(i-1) M_(n-i)) / n,
    and since B_i vanishes at odd i > 1 only i = 1 (B_1 = -1/2) and even i
    contribute.  Over the common denominator E of the even B_i, i < 2 max(ks),
    with B_i = beta_i / E, the bracket times 2QE is the integer
    S_k = E (2 M_n - n Q M_(n-1)) + sum_i C(n, i) 2 beta_i Q^i M_(n-i),
    so L(-2k, chi) = -S_k / 2QEn.  The moments up to 2 max(ks) + 1 and the
    weights 2 beta_i Q^i are formed once for every k.
    """
    top = 2 * max(ks) + 1
    two_p = chi.modulus
    moments = [0] * (top + 1)
    for r, sign in chi.signed_support:
        power = sign
        for j in range(top + 1):
            moments[j] += power
            power *= r
    evens = even_bernoulli_numbers(top // 2)  # B_i, i = 2, 4, .., top - 1
    common = math.lcm(*(b.denominator for b in evens))
    weights = [
        2 * b.numerator * (common // b.denominator) * two_p ** (2 * half)
        for half, b in enumerate(evens, 1)
    ]
    ratios = []
    for k in ks:
        n = 2 * k + 1
        total = common * (2 * moments[n] - n * two_p * moments[n - 1])
        for half, weight in enumerate(weights[:k], 1):  # i = 2 half < n
            total += math.comb(n, 2 * half) * weight * moments[n - 2 * half]
        ratios.append((-total, 2 * two_p * common * n))
    return ratios
