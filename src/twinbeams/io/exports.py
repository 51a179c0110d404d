"""Artifact writers: spectrum tables, matrix heatmaps, generic CSV.

Floats are written with 17 significant digits (``%.17g``), which round-trips
every IEEE double exactly, so re-running an identical config reproduces the
artifact files byte for byte.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

__all__ = ["write_csv", "export_spectrum", "export_matrix_heatmap"]


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt(value)


def write_csv(path, header, rows) -> Path:
    """Write one CSV table; floats get exact-round-trip formatting."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    return path


def _pair_columns(spectrum, pairing):
    """(pair_id, pair_gap) per spectrum element.

    ``pair_id`` is the 1-based id of the accepted pair the element belongs
    to, 0 when its duo was not accepted; ``pair_gap`` is the relative gap of
    the element's positional duo regardless of acceptance.
    """
    n = len(spectrum.values)
    ids = [0] * n
    gaps = [0.0] * n
    for i0, i1, gap in spectrum.pairs:
        gaps[i0] = gaps[i1] = gap
    if pairing is not None:
        for rec in pairing.accepted:
            ids[rec.i0] = ids[rec.i1] = rec.pair_id
    return ids, gaps


def export_spectrum(spectrum, stem, fmt="csv", detunings=None, pairing=None) -> list[Path]:
    """Write a squeezing spectrum as CSV and/or JSON next to ``stem``.

    The CSV columns are exactly ``index,r,pair_id,pair_gap``.  The JSON
    mirror additionally carries every mode vector (real and imaginary parts
    as separate arrays, one entry per mode) and, when given, the detuning
    labels of the mode rows (signal half first, then idler).
    """
    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"format must be csv, json or both, got {fmt!r}")
    stem = Path(stem)
    ids, gaps = _pair_columns(spectrum, pairing)
    written: list[Path] = []
    if fmt in ("csv", "both"):
        rows = (
            (i, r, ids[i], gaps[i]) for i, r in enumerate(spectrum.values)
        )
        written.append(write_csv(stem.with_suffix(".csv"), ["index", "r", "pair_id", "pair_gap"], rows))
    if fmt in ("json", "both"):
        payload = {
            "source": spectrum.source,
            "values": [float(r) for r in spectrum.values],
            "pair_id": ids,
            "pair_gap": [float(g) for g in gaps],
            "modes_re": spectrum.modes.real.T.tolist(),
            "modes_im": spectrum.modes.imag.T.tolist(),
        }
        if detunings is not None:
            payload["detunings"] = [float(w) for w in np.asarray(detunings)]
        path = stem.with_suffix(".json")
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        written.append(path)
    return written


def export_matrix_heatmap(matrix, row_grid, col_grid, path) -> Path:
    """Write a complex matrix as a long CSV: omega,omega_prime,re,im,abs.

    One row per element in row-major order; ``omega`` labels the matrix row,
    ``omega_prime`` the column.  Each matrix row is written through one
    ``%``-template whose grid labels are formatted once; ``'%.17g' % x`` is
    the same conversion as ``format(x, ".17g")``, so the bytes are those of
    ``write_csv`` fed one element at a time.
    """
    mat = np.asarray(matrix, dtype=complex)
    rows_w = np.asarray(row_grid, dtype=float)
    cols_w = np.asarray(col_grid, dtype=float)
    if mat.shape != (len(rows_w), len(cols_w)):
        raise ValueError(
            f"matrix shape {mat.shape} does not match grids "
            f"({len(rows_w)} x {len(cols_w)})"
        )
    # Joined with the row label as separator: "" + label + cell0 + label + cell1 ...
    cells = [""] + [f"{_fmt(w)},%.17g,%.17g,%.17g\n" for w in cols_w]
    # np.hypot is the libm hypot of Python's abs(complex); np.abs(mat) is a
    # SIMD routine that can differ from it in the last bit.
    values = np.stack(
        [mat.real, mat.imag, np.hypot(mat.real, mat.imag)], axis=-1
    ).reshape(len(rows_w), -1)
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("omega,omega_prime,re,im,abs\n")
        for w, row in zip(rows_w, values):
            fh.write(f"{_fmt(w)},".join(cells) % tuple(row.tolist()))
    return path
