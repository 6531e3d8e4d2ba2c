from fractions import Fraction

import pytest
from mpmath import mp

from brieskorn_wrt import BrieskornTriple, PrecisionContext, chi, modularform
from brieskorn_wrt.cli import coprime_triples as cli_coprime_triples
from brieskorn_wrt.exactmath import to_mpf
from oracles import phi_hat


@pytest.fixture(scope="session")
def ctx50():
    return PrecisionContext(50)


@pytest.fixture(scope="session")
def ctx30():
    return PrecisionContext(30)


@pytest.fixture
def no_enumeration(monkeypatch):
    """enumerate_triples raises, in every library module that imported it by name."""

    def enumerate_triples(p):
        raise AssertionError(f"enumerate_triples({p}) called")

    for module in (chi, modularform):
        monkeypatch.setattr(module, "enumerate_triples", enumerate_triples)


EXAMPLE_TRIPLES = [(2, 3, 5), (2, 3, 7), (3, 4, 5)]


def coprime_triples(pmax):
    """All pairwise coprime (p1 < p2 < p3), each >= 2, with product <= pmax."""
    return [p.p for p in cli_coprime_triples(pmax)]


def vertical_limit(p, ell, m, n, ctx, y0=1e-4, levels=6):
    """Limit of phi_hat along m/n + iy, y -> 0-, by Neville extrapolation.

    The approach error is a smooth series in y (odd L-values vanish), so
    polynomial extrapolation through a halving ladder of y converges fast.
    """
    with ctx.workdps():
        ys = [mp.mpf(y0) / 2**j for j in range(levels)]
        vals = [
            phi_hat(p, ell, mp.mpc(to_mpf(Fraction(m, n)), -y), ctx) for y in ys
        ]
        for k in range(1, levels):
            vals = [
                (ys[i] * vals[i + 1] - ys[i + k] * vals[i]) / (ys[i] - ys[i + k])
                for i in range(levels - k)
            ]
        return vals[0]


def make_triple(ps) -> BrieskornTriple:
    return BrieskornTriple(*ps)
