"""Artifact writers: spectrum tables, the squeezing matrix, matrix heatmaps,
generic CSV.

Floats in CSV are written with 17 significant digits (Python's ``%.17g``),
which round-trips every IEEE double exactly, so re-running an identical
config reproduces the artifact files byte for byte.  The squeezing matrix
itself is stored exactly in binary, as ``squeezing_matrix.npz``; its CSV
heatmap is written from that file on request (``twinbeams heatmap DIR``).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from ..takagi import _float_or_complex
from .config import FORMATS

__all__ = [
    "write_csv",
    "export_spectrum",
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


def export_spectrum(spectrum, stem, fmt="csv", detunings=None, pairing=None) -> list[Path]:
    """Write a squeezing spectrum as CSV and/or JSON next to ``stem``.

    The CSV columns are exactly ``index,r,pair_id,pair_gap``, one ``%.17g``
    per float.  The JSON mirror additionally carries every mode vector (real
    and imaginary parts as separate arrays, one entry per mode) and, when
    given, the detuning labels of the mode rows (signal half first, then
    idler); a values-only spectrum (``modes`` None) has no mirror, and
    asking for one is a ValueError.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be csv, json or both, got {fmt!r}")
    if fmt != "csv" and spectrum.modes is None:
        raise ValueError(f"a values-only spectrum has no modes for the {fmt!r} JSON mirror")
    stem = Path(stem)
    ids, gaps = _pair_columns(spectrum, pairing)
    written: list[Path] = []
    if fmt in ("csv", "both"):
        rows = zip(range(len(ids)), spectrum.values.tolist(), ids, gaps)
        written.append(_write_table(
            stem.with_suffix(".csv"), ["index", "r", "pair_id", "pair_gap"],
            "%d,%.17g,%d,%.17g\n", [rows],
        ))
    if fmt in ("json", "both"):
        head = {
            "source": spectrum.source,
            "values": [float(r) for r in spectrum.values],
            "pair_id": ids,
            "pair_gap": [float(g) for g in gaps],
        }
        tail = {} if detunings is None else {"detunings": [float(w) for w in np.asarray(detunings)]}
        path = stem.with_suffix(".json")
        # The bytes of json.dumps(head | modes_re | modes_im | tail) + "\n",
        # with the n x n mode arrays written one mode (column) at a time.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(head)[:-1])
            for key, part in (("modes_re", np.real), ("modes_im", np.imag)):
                fh.write(f', "{key}": [')
                for k in range(spectrum.modes.shape[1]):
                    fh.write((", " if k else "") + json.dumps(part(spectrum.modes[:, k]).tolist()))
                fh.write("]")
            fh.write(", " + json.dumps(tail)[1:] if tail else "}")
            fh.write("\n")
        written.append(path)
    return written


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
    """``(omega, gamma)`` of a file written by ``export_squeezing_matrix``."""
    with np.load(path) as data:
        return data["omega"], data["gamma"]


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
    cols = ["%.17g," % w for w in cols_w.tolist()]
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("omega,omega_prime,re,im,abs\n")
        for w, row in zip(rows_w.tolist(), mat):
            head = "%.17g," % w
            fh.write("".join(
                "%s%s%.17g,%.17g,%.17g\n" % (head, col, v.real, v.imag, abs(v))
                for col, v in zip(cols, row.tolist())
            ))
    return path
