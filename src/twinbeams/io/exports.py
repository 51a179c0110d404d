"""Artifact writers: spectrum tables and factors, the squeezing matrix,
matrix heatmaps, generic CSV.

Floats in CSV are written with 17 significant digits (Python's ``%.17g``),
which round-trips every IEEE double exactly, so re-running an identical
config reproduces the artifact files byte for byte.  The spectrum's factors
and the squeezing matrix are stored exactly in binary, as ``spectrum.npz``
and ``squeezing_matrix.npz``; the matrix's CSV heatmap is written from its
file on request (``twinbeams heatmap DIR``).
"""

from __future__ import annotations

import csv
import zipfile
from itertools import repeat
from pathlib import Path

import numpy as np

from ..takagi import TakagiFactors, _float_or_complex
from ..twinbeam import SchmidtDecomposition, SqueezingSpectrum

__all__ = [
    "write_csv",
    "export_spectrum",
    "load_spectrum",
    "export_squeezing_matrix",
    "load_squeezing_matrix",
    "export_matrix_heatmap",
]


def write_csv(path, header, rows) -> Path:
    """Write one CSV table.  Float cells (``float`` or ``np.floating``) are
    written as ``%.17g``; ``csv.writer`` writes every other cell as its
    ``str()`` (strings, ints and bools, numpy's too), so an object that merely
    converts to float, such as a 0-d array or a ``Decimal``, is written as its
    ``str()``, not ``%.17g``."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        writer.writerows(
            ["%.17g" % v if isinstance(v, (float, np.floating)) else v for v in row]
            for row in rows
        )
    return path


def _write_table(path, header, row_format, blocks) -> Path:
    """Write a fixed-layout CSV table: the header, then each block's rows
    spelled by the one ``row_format`` (``%d``, ``%s`` and ``%.17g`` fields),
    joined per block.  It gives the bytes ``write_csv`` gives the same rows
    when every ``%s`` cell needs no quoting and every ``%.17g`` cell is a
    Python float, such as a column's ``tolist()``."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for rows in blocks:
            fh.write("".join(row_format % row for row in rows))
    return path


def _pair_columns(spectrum, pairing):
    """(pair_id, pair_gap) per spectrum element.

    ``pair_id`` is the 1-based id of the accepted pair the element belongs
    to, 0 when its duo was not accepted; ``pair_gap`` is the relative gap of
    the element's positional duo regardless of acceptance.
    """
    n = len(spectrum.values)
    accepted = 0 if pairing is None else 2 * pairing.n_pairs
    ids = [k // 2 + 1 if k < accepted else 0 for k in range(n)]
    gaps = [0.0] * n
    for i0, i1, gap in spectrum.pairs:
        gaps[i0] = gaps[i1] = gap
    return ids, gaps


def export_spectrum(spectrum, factors, detunings, stem, pairing=None) -> list[Path]:
    """Write a squeezing spectrum as ``stem.csv`` and its factors as ``stem.npz``.

    The CSV columns are exactly ``index,r,pair_id,pair_gap``, one ``%.17g``
    per float.  The npz is one uncompressed ``np.savez`` of ``omega`` (the
    detunings of the mode rows, signal band first), ``r`` and either ``c``
    and ``d`` (a ``SchmidtDecomposition``) or ``v`` (``TakagiFactors``), each
    as stored; ``load_spectrum`` gives them back bit for bit.
    """
    stem = Path(stem)
    ids, gaps = _pair_columns(spectrum, pairing)
    rows = zip(range(len(ids)), spectrum.values.tolist(), ids, gaps)
    table = _write_table(
        stem.with_suffix(".csv"), ["index", "r", "pair_id", "pair_gap"],
        "%d,%.17g,%d,%.17g\n", [rows],
    )
    if isinstance(factors, SchmidtDecomposition):
        arrays = dict(r=factors.values, c=factors.c, d=factors.d)
    else:
        arrays = dict(r=factors.r, v=factors.v)
    store = stem.with_suffix(".npz")
    with open(store, "wb") as fh:
        np.savez(fh, omega=detunings, **arrays)
    return [table, store]


def _read_npz(path) -> dict[str, np.ndarray]:
    """Every array of an npz archive, read without pickle and held to what the
    exporters here write: ``omega`` and ``r`` float64, any other key float64 or
    complex128, and no NaN or infinite entry.  Anything else, a lone ``.npy``
    array, an empty or damaged file and a pickled array included, is a
    ValueError that names the file (and the key)."""
    try:
        data = np.load(path, allow_pickle=False)
        if isinstance(data, np.lib.npyio.NpzFile):
            with data:
                arrays = {key: data[key] for key in data.files}
    except (EOFError, ValueError, zipfile.BadZipFile) as err:
        raise ValueError(f"{path}: {err}") from err
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: one .npy array, not an npz archive")
    for key, array in arrays.items():
        real = key in ("omega", "r")
        if array.dtype != np.float64 and (real or array.dtype != np.complex128):
            allowed = "float64" if real else "float64 or complex128"
            raise ValueError(f"{path}: {key} has dtype {array.dtype}, not {allowed}")
        if not np.all(np.isfinite(array)):
            raise ValueError(f"{path}: {key} has a NaN or infinite entry")
    return arrays


def load_spectrum(path) -> tuple[np.ndarray, SchmidtDecomposition | TakagiFactors]:
    """``(omega, factors)`` of a ``spectrum.npz`` written by ``export_spectrum``.

    The key set names the route: ``omega, r, c, d`` gives a validated
    ``SchmidtDecomposition`` (2m detunings for m values), ``omega, r, v``
    the ``TakagiFactors`` of a validated spectrum (one detuning per value).
    Every array must be finite, ``omega`` and ``r`` float64, and ``c``, ``d``
    and ``v`` float64 or complex128, the dtypes ``export_spectrum`` writes.
    Any other key set or dtype, a shape mismatch or a non-unitary factor is a
    ValueError that names the file.
    """
    arrays = _read_npz(path)
    keys = sorted(arrays)
    if keys not in (["c", "d", "omega", "r"], ["omega", "r", "v"]):
        raise ValueError(f"{path}: keys {keys} are neither omega, r, c, d nor omega, r, v")
    try:
        if "v" in arrays:
            spectrum = SqueezingSpectrum(arrays["r"], arrays["v"])
            factors = TakagiFactors(spectrum.modes, spectrum.values)
            n = len(spectrum.values)
        else:
            factors = SchmidtDecomposition(arrays["c"], arrays["d"], arrays["r"])
            n = 2 * len(factors.values)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    omega = arrays["omega"]
    if omega.shape != (n,):
        raise ValueError(f"{path}: omega has shape {omega.shape}, the modes have {n} rows")
    return omega, factors


def export_squeezing_matrix(gamma, detunings, path) -> Path:
    """Store a squeezing matrix exactly: one uncompressed ``np.savez`` with
    ``omega`` (the grid detunings) and ``gamma`` (as stored, float64 or
    complex128).

    ``np.load`` gives both arrays back bit for bit.  The bytes depend only on
    the arrays: ``zipfile`` stamps every entry 1980-01-01.
    """
    path = Path(path)
    with open(path, "wb") as fh:
        np.savez(fh, omega=detunings, gamma=gamma)
    return path


def load_squeezing_matrix(path) -> tuple[np.ndarray, np.ndarray]:
    """``(omega, gamma)`` of a file written by ``export_squeezing_matrix``:
    exactly a finite float64 ``omega`` of shape (n,) and a finite float64 or
    complex128 ``gamma`` of shape (n, n), else a ValueError naming the file."""
    arrays = _read_npz(path)
    keys = sorted(arrays)
    if keys != ["gamma", "omega"]:
        raise ValueError(f"{path}: keys {keys} are not gamma, omega")
    omega, gamma = arrays["omega"], arrays["gamma"]
    if omega.ndim != 1 or gamma.shape != 2 * omega.shape:
        raise ValueError(
            f"{path}: shapes omega {omega.shape} and gamma {gamma.shape} are not (n,) and (n, n)"
        )
    return omega, gamma


def export_matrix_heatmap(matrix, row_grid, col_grid, path) -> Path:
    """Write a real or complex matrix as a long CSV: omega,omega_prime,re,im,abs.

    One row per element in row-major order; ``omega`` labels the matrix row,
    ``omega_prime`` the column.  Labels, ``re``, ``im`` and ``abs(complex)``
    are each ``%.17g``; a float64 matrix has ``im`` 0.
    """
    mat = _float_or_complex(matrix)
    rows_w = np.asarray(row_grid, dtype=float)
    cols_w = np.asarray(col_grid, dtype=float)
    if mat.shape != (len(rows_w), len(cols_w)):
        raise ValueError(
            f"matrix shape {mat.shape} does not match grids "
            f"({len(rows_w)} x {len(cols_w)})"
        )
    # Each label is spelled once.  abs() is Python's, cell by cell: numpy's
    # complex abs can differ from it in the last bit.
    cols = ["%.17g," % w for w in cols_w.tolist()]
    blocks = (
        zip(repeat(head), cols, row.real.tolist(), row.imag.tolist(), map(abs, row.tolist()))
        for head, row in zip(["%.17g," % w for w in rows_w.tolist()], mat)
    )
    return _write_table(
        path, ["omega", "omega_prime", "re", "im", "abs"], "%s%s%.17g,%.17g,%.17g\n", blocks
    )
