"""Library-level Landau workload: the joint Fock states Psi_{n,l} for
n, l < LABELS at cut NCUT, built one by one through landau_modes.fock_psi.

Prints one JSON report: the worst eigen-residual of H_up and H_down over
the states (rounded to six significant digits, as the suites' reports are)
and the label where it peaks.  Exits 1 if any state is not finite.  The
states are deterministic, so the driver takes no arguments.

    PYTHONPATH=src python3 perfbench/fock_driver.py
"""

from __future__ import annotations

import json
import sys

import numpy as np

from landau_modular import landau_modes as lm

NCUT = 24
LABELS = 4


def main() -> int:
    cut = lm.ModeCut(NCUT)
    h = lm.hamiltonians(cut)
    worst, where = 0.0, None
    for n in range(LABELS):
        for l in range(LABELS):
            psi = lm.fock_psi(cut, n, l)
            if not np.all(np.isfinite(psi)):
                print(f"non-finite state Psi_{n},{l} at cut {NCUT}", file=sys.stderr)
                return 1
            res = max(float(np.linalg.norm(h.h_up @ psi - (l + 0.5) * psi)),
                      float(np.linalg.norm(h.h_down @ psi - (n + 0.5) * psi)))
            if res > worst:
                worst, where = res, [n, l]
    report = {"ncut": NCUT, "labels": LABELS,
              "worst_residual": float(f"{worst:.6g}"), "worst_label": where}
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
