"""The quadrature suite: the planar Gaussian rule's certified moments, the
orthonormality of the basis B[n, k] under it, and the convergence of its
orders on an exponential kernel.
"""

from __future__ import annotations

import math

import numpy as np

from . import cgauss_quad as quad
from .suites import Report, SuiteConfig


def run(cfg: SuiteConfig) -> Report:
    s = Report("quadrature", cfg)
    rule = quad.build_rule(cfg.radial, cfg.angular)

    # z^k held for 0 <= k <= 12, zbar^m formed once per m: 14 node-sized arrays
    z_pows = [rule.nodes**k for k in range(13)]
    s.check("moment_exactness",
            "integral of zbar^m z^k dnu = delta_mk m!, scaled by the "
            "moment magnitude, indices <= 12",
            [abs(quad.integrate_values(rule, zbar_pow * z_pows[k])
                 - quad.gauss_moment(m, k)) / max(1.0, math.gamma((m + k) / 2.0 + 1.0))
             for m in range(13) for zbar_pow in [rule.nodes.conj()**m]
             for k in range(13) if quad.covers(rule, m, k)], 1e-12)
    del z_pows

    # B[n, k](rho e^(i theta)) = e^(i(k - n) theta) B[n, k](rho): a ring x angle sum
    n, k = np.divmod(np.arange(13 * 13), 13)
    values = quad.basis_values(rule.radii, 12).reshape(13 * 13, -1)
    gram = quad.ring_angle_sum(rule, values, k - n)
    s.check("basis_orthonormality",
            "<B[n, k], B[m, l]> = delta delta under dnu, indices <= 12",
            np.abs(gram - np.eye(13 * 13)), 1e-10)

    wref = 0.8 + 0.4j
    exact = np.exp(abs(wref) ** 2)  # integral of e^(zbar w) e^(z wbar) dnu
    errs = [abs(quad.integrate_values(small, np.exp(small.nodes.conj() * wref
                                                    + small.nodes * np.conj(wref)))
                - exact)
            for r, k in ((4, 8), (8, 16), (16, 32))
            for small in [quad.build_rule(r, k)]]
    s.check("order_convergence",
            "errors on the exponential kernel decrease with the orders",
            0.0 if errs[0] > errs[1] > errs[2] else 1.0, 0.5)
    return s
