"""Exact and high-precision invariants of Brieskorn homology spheres.

Computes the SU(2) quantum invariant tau_N as half the Eichler-integral limit
of a false theta series (Jeffrey's SL(2, Z) formula from SU(2)'s S and T is
kept as a cross-check), the weight-3/2 theta series with its transformation
data, the nearly modular asymptotics of those limits, the classical invariants
(Casson, Chern-Simons, Reidemeister torsion, spectral flow), and the exact
perturbative series coefficients, read off the L-values of the same nearly
modular tail, with every identity between them available as a check.
"""

__version__ = "0.1.0"

from .chi import (
    BrieskornTriple,
    EllTriple,
    PeriodicChi,
    admissible_count,
    admissible_triples,
    build_chi,
    canonicalize,
    enumerate_triples,
    gamma_closed_form,
    mordell_count,
    orbit,
)
from .exactmath import DEFAULT_CONTEXT, PrecisionContext
from .modularform import (
    ExpansionParts,
    ModularData,
    eichler_limit,
    eichler_tail,
    modular_data,
    nearly_modular_expansion,
    theta_eval,
)
from .ohtsuki import (
    OhtsukiSeries,
    lambda_coefficients,
    load_table1,
    table1_path,
)
from .topology import (
    FlatConnectionRecord,
    casson,
    chern_simons,
    flat_connections,
    phi_invariant,
    verify_s_torsion,
)
from .wrt import (
    AsymptoticApprox,
    WrtResult,
    asymptotic_approx,
    jeffrey_tau,
    tau_coordinates,
    tau_n,
)

__all__ = [
    "AsymptoticApprox",
    "BrieskornTriple",
    "DEFAULT_CONTEXT",
    "EllTriple",
    "ExpansionParts",
    "FlatConnectionRecord",
    "ModularData",
    "OhtsukiSeries",
    "PeriodicChi",
    "PrecisionContext",
    "WrtResult",
    "admissible_count",
    "admissible_triples",
    "asymptotic_approx",
    "build_chi",
    "canonicalize",
    "casson",
    "chern_simons",
    "eichler_limit",
    "eichler_tail",
    "enumerate_triples",
    "flat_connections",
    "gamma_closed_form",
    "jeffrey_tau",
    "lambda_coefficients",
    "load_table1",
    "modular_data",
    "mordell_count",
    "nearly_modular_expansion",
    "orbit",
    "phi_invariant",
    "table1_path",
    "tau_coordinates",
    "tau_n",
    "theta_eval",
    "verify_s_torsion",
]
