"""Artifact writers: spectrum tables, matrix heatmaps, generic CSV.

Floats are written with 17 significant digits (``%.17g``), which round-trips
every IEEE double exactly, so re-running an identical config reproduces the
artifact files byte for byte.  The matrix heatmap formats each distinct
cell string once: a bitwise-symmetric matrix (the squeezing matrix always
is) reuses its upper triangle's strings for the lower one, and a zero
imaginary part is spelled without formatting.  Both reuse exact strings, so
the bytes are those of the per-cell writer for every input.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from ..takagi import _float_or_complex

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
    accepted = 0 if pairing is None else 2 * pairing.n_pairs
    ids = [k // 2 + 1 if k < accepted else 0 for k in range(n)]
    gaps = [0.0] * n
    for i0, i1, gap in spectrum.pairs:
        gaps[i0] = gaps[i1] = gap
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


def _format_all(values) -> np.ndarray:
    """``%.17g`` of each value, as fixed-width bytes (``S24`` fits every double)."""
    text = b"%.17g\n" * len(values) % tuple(values.tolist())
    return np.array(text.split(), dtype="S24")


def export_matrix_heatmap(matrix, row_grid, col_grid, path) -> Path:
    """Write a real or complex matrix as a long CSV: omega,omega_prime,re,im,abs.

    One row per element in row-major order; ``omega`` labels the matrix row,
    ``omega_prime`` the column.  The bytes are those of ``write_csv`` fed one
    element at a time (``re``, ``im`` and ``abs(complex)``, each ``%.17g``),
    for every input; only the number of values formatted depends on it:

    - A square matrix that equals its transpose bit for bit (compared as
      ``uint64``, so a ``-0.0``/``+0.0`` mirror pair is not symmetric) has
      each upper-triangle element formatted once.  The strings go to a
      packed ``S24`` table, and row i takes its cells left of the diagonal
      from the table entries of column i.  Any other matrix formats every
      cell of its row and stores nothing.
    - Where ``im`` is exactly zero, nothing more is formatted: ``im`` reads
      ``0`` or ``-0`` by its sign bit, and ``abs`` is the ``re`` string
      without a leading ``-``.  This is exact, since hypot(x, +-0) = |x|
      and ``%.17g`` of -x is ``-`` followed by ``%.17g`` of x (``nan``
      carries no sign).

    Each matrix row is written through one ``%``-template whose grid labels
    are formatted once.
    """
    mat = _float_or_complex(matrix)
    rows_w = np.asarray(row_grid, dtype=float)
    cols_w = np.asarray(col_grid, dtype=float)
    if mat.shape != (len(rows_w), len(cols_w)):
        raise ValueError(
            f"matrix shape {mat.shape} does not match grids "
            f"({len(rows_w)} x {len(cols_w)})"
        )
    n = len(cols_w)
    re, im = mat.real, mat.imag
    re_bits, im_bits = re.view(np.uint64), im.view(np.uint64)
    mirrored = (
        mat.shape == (n, n)
        and np.array_equal(re_bits, re_bits.T)
        and np.array_equal(im_bits, im_bits.T)
    )
    zero_im = im == 0
    # Table columns: re, and im and abs when some im is not zero.
    width = 1 if zero_im.all() else 3
    if mirrored:
        # Packed upper triangle: element (i, j >= i) sits at start[i] + j - i.
        k = np.arange(n)
        start = k * (2 * n - k + 1) // 2
        table = np.empty((n * (n + 1) // 2, width), dtype="S24")
    # Joined with the row label as separator: "" + label + cell0 + label + cell1 ...
    cells = [b""] + [f"{_fmt(w)},%s,%s,%s\n".encode() for w in cols_w]
    row = np.empty((n, 3), dtype="S24")
    re_s, im_s, abs_s = row.T
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(b"omega,omega_prime,re,im,abs\n")
        for i, w in enumerate(rows_w):
            lo = i if mirrored else 0
            if lo:
                # Cells (i, j < i) are the stored (j, i).
                row[:lo, :width] = table[start[:lo] + lo - np.arange(lo)]
            re_s[lo:] = _format_all(re[i, lo:])
            z = zero_im[i]
            im_s[z] = np.where(np.signbit(im[i, z]), b"-0", b"0")
            abs_s[z] = np.char.lstrip(re_s[z], b"-")
            if width == 3:
                fresh = lo + np.flatnonzero(~z[lo:])
                im_s[fresh] = _format_all(im[i, fresh])
                # np.hypot is the libm hypot of Python's abs(complex); np.abs
                # is a SIMD routine that can differ from it in the last bit.
                abs_s[fresh] = _format_all(np.hypot(re[i, fresh], im[i, fresh]))
            if mirrored:
                table[start[i] : start[i] + n - i] = row[i:, :width]
            label = _fmt(w).encode() + b","
            fh.write(label.join(cells) % tuple(row.ravel().tolist()))
    return path
