"""Shared builds of the two reference working points.

Both use the 397.5 nm / 129 fs pump on 2 mm of BBO; the band is sized by the
recipe half_width = omega_s + max(width_factor / tau1, 3 Omega_p) so the grid
covers the phase-matched bands plus their pump-broadened wings.
"""

import cmath
import csv
import dataclasses
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from twinbeams.mehler import characteristic_times, gaussian_model_params, mehler_factors
from twinbeams.pdc import (
    PumpConfig,
    bbo_crystal,
    build_frequency_grid,
    build_squeezing_matrix,
    extract_jsa,
)


def reference_csv(header, rows) -> bytes:
    """Reference: the per-cell CSV writer, floats by Python's own ``%.17g``,
    independent of the numpy formatter the artifact writers use."""

    def cell(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (bool, np.bool_)):
            return str(bool(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return format(float(v), ".17g")

    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(v) for v in row] for row in rows)
    return text.getvalue().encode()


def per_cell_heatmap(matrix, row_grid, col_grid, path):
    """Reference: the element-by-element heatmap writer built on reference_csv."""
    mat = np.asarray(matrix)
    rows_w = np.asarray(row_grid, dtype=float)
    cols_w = np.asarray(col_grid, dtype=float)

    def rows():
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                v = complex(mat[i, j])
                yield (rows_w[i], cols_w[j], v.real, v.imag, abs(v))

    path.write_bytes(reference_csv(["omega", "omega_prime", "re", "im", "abs"], rows()))
    return path


def artifact_bytes(root):
    """{path relative to ``root``: bytes} of every file under ``root``."""
    root = Path(root)
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def grid_sums(grid):
    """O_j + O_l of every cell of a grid as its exact sums (j + l + 1 - 2m) h,
    one rounding each from the integer indices, the sums the build uses."""
    j = np.arange(2 * grid.m)
    return (j[:, None] + j[None, :] + 1 - 2 * grid.m) * grid.spacing


def random_unitary(n, rng=np.random):
    """Haar-random n x n unitary (QR, phases fixed by diag(R)) drawn from
    ``rng``, a ``Generator`` or by default the global NumPy RNG."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotating_first_schmidt_mode(make_schmidt):
    """Wrap a Schmidt decomposition builder so c's first column carries a stray e^{i pi/4}.

    c stays unitary, so the decomposition is accepted, but C R D^H picks up
    that phase on the leading term and no longer reconstructs the JSA.
    """

    def wrapper(*args, **kwargs):
        sd = make_schmidt(*args, **kwargs)
        c = sd.c.astype(complex)
        c[:, 0] *= cmath.exp(0.25j * cmath.pi)
        return dataclasses.replace(sd, c=c)

    return wrapper


@dataclass
class WorkingPoint:
    crystal: object
    pump: object
    times: object
    factors: object
    grid: object
    sq: object
    ext: object


def build_working_point(
    theta0_deg=28.81, length_mm=2.0, m=128, gain=10.0, width_factor=4.0, z0_fraction=0.5
):
    crystal = bbo_crystal(length_mm, theta0_deg)
    pump = PumpConfig(lambda_p_nm=397.5, tau_p_fs=129.0, gain=gain, z0_fraction=z0_fraction)
    t = characteristic_times(crystal, pump)
    f = mehler_factors(gaussian_model_params(t))
    half_width = t.omega_s + max(width_factor / f.tau1, 3.0 * t.omega_p)
    grid = build_frequency_grid(m, half_width=half_width)
    sq = build_squeezing_matrix(crystal, pump, grid)
    ext = extract_jsa(sq)
    return WorkingPoint(
        crystal=crystal, pump=pump, times=t, factors=f, grid=grid, sq=sq, ext=ext
    )


@pytest.fixture(scope="session")
def nondegenerate():
    """2 mm BBO at 28.81 deg: well-separated twin bands."""
    return build_working_point()


@pytest.fixture(scope="session")
def near_degenerate():
    """2 mm BBO at 29.18 deg: the twin bands almost touch."""
    return build_working_point(theta0_deg=29.18)
