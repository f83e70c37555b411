"""Regenerate ``bench/refs.json``: reference eigenvalues of the ramp models.

Run from the repository root:

    python3 bench/make_refs.py

Each ``ramp-n`` model is discretized by ``pio.oracle`` (a tensor quadrature
of the kernel with a dense or compressed eigensolve, no use of the spectral
reduction) at a high grid.  The eigenvalues above the essential spectrum
``[0, n]`` are stored, together with how far they moved from a coarser grid.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from pio.model import model_from_dict  # noqa: E402
from pio.oracle import nystrom_matrix, oracle_eigs  # noqa: E402

from cases import REFS_FILE, ramp_data  # noqa: E402

# (grid, coarser check grid); ramp-8 stops at 80 to keep the span matrix
# (8*N^2*(n+m)*N bytes) near 65 MB
GRIDS = {1: (100, 80), 2: (100, 80), 4: (100, 80), 8: (80, 60)}
GAP = 0.05  # oracle eigenvalues this far above the essential spectrum count


def discrete(model, n, grid):
    eigs = oracle_eigs(nystrom_matrix(model, grid, grid))
    return sorted(float(e) for e in eigs if e > n + GAP)


def main():
    out = {"command": "python3 bench/make_refs.py", "ramp": {}}
    for n, (grid, coarse) in GRIDS.items():
        model = model_from_dict(ramp_data(n))
        fine, check = discrete(model, n, grid), discrete(model, n, coarse)
        if len(fine) != len(check):
            raise SystemExit(f"ramp-{n}: grids {grid} and {coarse} disagree on the count")
        change = max(abs(u - v) for u, v in zip(fine, check))
        out["ramp"][str(n)] = {
            "grid": grid,
            "check_grid": coarse,
            "max_change": change,
            "eigenvalues": fine,
        }
        print(f"ramp-{n}: {len(fine)} eigenvalues at N={grid}, moved {change:.1e} from N={coarse}")
    with open(REFS_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
