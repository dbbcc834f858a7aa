"""The wigner suite: the phase-space samples of the matrix units against
their printed and corrected closed forms, and the rotated displacement
block against the direct eigensolve.
"""

from __future__ import annotations

import math

import numpy as np

from . import phase_space as ps
from .hs_space import matrix_unit
from .suites import Report, SuiteConfig


def run(cfg: SuiteConfig) -> Report:
    s = Report("wigner", cfg)
    grid = np.linspace(-2.0, 2.0, 5)
    labels = [(n, l) for n in range(4) for l in range(4)]
    # the 16 matrix units share one displacement block per grid point
    units = np.array([matrix_unit(4, n, l) for n, l in labels])
    xs, ys = np.repeat(grid, 5), np.tile(grid, 5)
    # samples[:, i] is the sample of the i-th unit at every grid point
    samples = np.array([ps.wigner_sample(units, float(x), float(y), cfg.ncut)
                        for x, y in zip(xs, ys)])
    # row i of each closed form, like column i of the samples, is labels[i]
    printed, corrected = ps.wigner_closed_form(labels, xs, ys)
    s.check("closed_form_literal",
            "phase-space sample of |n><l| equals "
            "e^(-|z|^2/2) B[n, l](zbar, z)/sqrt(2 pi) as printed",
            np.abs(samples.T - printed), 1e-6)
    s.check("closed_form_corrected",
            "phase-space sample of |n><l| equals "
            "i^(n+l) e^(-|z|^2/2) B[l, n](zbar, z)/sqrt(2 pi)",
            np.abs(samples.T - corrected), 1e-6)
    s.erratum(
        "phase_space_closed_form",
        "The printed closed form for the phase-space transform of |n><l| "
        "omits a phase i^(n+l) and swaps the polynomial indices; no "
        "re-phasing of the basis repairs it (the diagonal n = l = 1 case "
        "fails by an exact sign).",
        "closed_form_literal")

    x00 = matrix_unit(1, 0, 0)
    s.check("origin_normalization", "sample of |0><0| at the origin is "
            "1/sqrt(2 pi)",
            abs(ps.wigner_sample(x00, 0.0, 0.0, cfg.ncut)
                - 1.0 / math.sqrt(2.0 * math.pi)), 1e-12)

    # corners and edge midpoints of the grid: every quadrant and both axes.
    # points[-1 - i] = -points[i], and U(-x, -y) = U(x, y)*, so one direct
    # eigensolve is the reference for both points of a pair
    points = [(float(x), float(y)) for x in grid[::2] for y in grid[::2]
              if not x == y == 0.0]

    def rotation_error(point, u, adjoint):
        block = ps.displacement_block(cfg.ncut, *point, cfg.ncut)
        if adjoint:
            np.conj(block, out=block)
            block = block.T
        block -= u  # in place, as the conjugate: a copy adds an ncut^2 array
        return float(np.max(np.abs(block)))

    def pair_errors(i):
        u = ps.displacement(cfg.ncut, *points[i])
        return (rotation_error(points[i], u, adjoint=False),
                rotation_error(points[-1 - i], u, adjoint=True))

    s.check("displacement_rotation",
            "e^(i theta N) e^(-i r Q) e^(-i theta N) from one eigensolve of Q "
            "equals exp(-i(xQ + yP)) at (x, y) = r(cos theta, sin theta)",
            [e for i in range(len(points) // 2) for e in pair_errors(i)], 1e-12)
    return s
