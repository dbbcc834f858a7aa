"""The kms suite: the KMS function of the Gibbs state, against its closed
form on a matrix-unit pair, against the real-time trace, and on the
boundary line t + i beta.
"""

from __future__ import annotations

import numpy as np

from . import modular_core as mc
from .hs_space import matrix_unit
from .rng import SplitMix64
from .suites import Report, SuiteConfig


def require(cfg: SuiteConfig) -> None:
    """Reject --dim levels whose Gibbs weight ratio e^(beta (dim - 1))
    overflows a double."""
    mc.require_finite_ratios(cfg.beta, cfg.dim)


def run(cfg: SuiteConfig) -> Report:
    s = Report("kms", cfg)
    w = mc.build_weights(cfg.beta, cfg.dim)
    rng = SplitMix64(cfg.seed)

    x01 = matrix_unit(cfg.dim, 0, 1)
    x10 = matrix_unit(cfg.dim, 1, 0)
    ts = (-2.0, -0.5, 0.0, 1.0, 2.0)
    s.check("closed_form_pair",
            "F(t) = alpha_0 e^(it), F(t + i beta) = alpha_1 e^(it) "
            "for the (E_01, E_10) pair",
            [abs(mc.kms_function(w, x01, x10, complex(t)) - w.alpha[0] * np.exp(1j * t))
             for t in ts]
            + [abs(mc.kms_function(w, x01, x10, complex(t, w.beta))
                   - w.alpha[1] * np.exp(1j * t)) for t in ts], 1e-13)

    # rho is diagonal: the trace is the entrywise sum of alpha_i A_ik sigma_t(B)_ki
    s.check("real_time_agreement",
            "F(t) = Tr[rho A sigma_t(B)]",
            [abs(mc.kms_function(w, a, b, complex(t))
                 - complex(np.sum(w.alpha[:, None] * a * mc.modular_flow(w, t, b).T)))
             for t in (-1.0, 0.3, 1.7) for a in [rng.complex_matrix(cfg.dim)]
             for b in [rng.complex_matrix(cfg.dim)]], 1e-12)

    t_grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    s.check("boundary_condition",
            "F(t + i beta) = phi(sigma_t(B) A)",
            [mc.kms_boundary_deviation(w, a, b, t_grid)
             for _ in range(20) for a in [rng.complex_matrix(cfg.dim)]
             for b in [rng.complex_matrix(cfg.dim)]], 1e-10)
    return s
