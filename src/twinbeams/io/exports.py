"""Artifact writers: spectrum tables, matrix heatmaps, generic CSV.

Floats are written with 17 significant digits (``%.17g``), which round-trips
every IEEE double exactly, so re-running an identical config reproduces the
artifact files byte for byte.

Every float cell of every CSV is formatted in numpy (``_format_all``), to
the bytes of Python's ``%.17g``; only the heatmap's grid labels take Python's
own.  Each double is split into a 53-bit significand f and a binary
exponent, its decimal exponent X is read off a table of the least
doubles >= 10**X, and f is multiplied by 10**(16 - X), held as a
128-bit truncated integer, in 32-bit limbs.  The product is the value times
10**(16 - X) to within 2**-69 of one unit, and never above it, so its
integer part and the top 64 bits of its fraction fix the 17 digits by
round-half-up.  This is Python's rounding except at an exact tie (fraction
1/2), which Python rounds half-even.  Every value whose computed fraction
lies within 8 parts in 2**64 of one half goes to Python's own ``%.17g``
instead: that holds every tie, every value the error bound leaves in doubt,
and nothing else in practice.  ``nan`` and ``+-inf`` go there as well.  The
``%g`` layout (fixed notation for decimal exponents -4 to 16, trailing
zeros trimmed, the sign of ``-0`` kept) is one byte gather: each value's
digits, a ``-``, a ``.``, a ``0`` and its exponent suffix are written to a
32-byte source row, and a table, indexed by the sign, the notation and the
count of digits up to the last nonzero one, names the source byte of each
byte of the text.

The heatmap formats each distinct cell string once: a bitwise-symmetric
matrix (the squeezing matrix always is) reuses its upper triangle's strings
for the lower one, and a zero imaginary part is spelled without formatting.
Both reuse exact strings, so the bytes are those of the per-cell writer for
every input.  It writes a tile of rows at a time, a fixed number of cells
that bounds its buffers: each cell is a record of NUL-padded fixed-width
fields, and the tile's text is its buffer without the NULs, in one write.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np

from ..takagi import _bit_symmetric, _float_or_complex
from .config import FORMATS

__all__ = ["write_csv", "export_spectrum", "export_matrix_heatmap"]


#: Rows per ``write_csv`` formatting batch, so no table is held whole.
_CSV_BATCH_ROWS = 256


def write_csv(path, header, rows) -> Path:
    """Write one CSV table.  Only float cells (``float`` or ``np.floating``)
    are formatted: ``%.17g`` by ``_format_all``, one call per batch of rows.
    ``csv.writer`` writes every other cell as its ``str()`` (strings, ints
    and bools, numpy's too); an object that merely converts to float, such as
    a 0-d array or a ``Decimal``, is written as its ``str()``, not ``%.17g``."""
    path = Path(path)
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        while batch := [list(row) for row in itertools.islice(rows, _CSV_BATCH_ROWS)]:
            at = [(row, k) for row in batch for k, v in enumerate(row)
                  if isinstance(v, (float, np.floating))]
            text = _format_all([row[k] for row, k in at]).astype(str).tolist()
            for (row, k), cell in zip(at, text):
                row[k] = cell
            writer.writerows(batch)
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
    if fmt not in FORMATS:
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


_U64 = np.uint64
_LIMB = _U64(0xFFFFFFFF)
#: Decimal exponents x of the nonzero finite doubles (4.9e-324 ... 1.8e308),
#: and binary exponents e of their frexp: 2**(e - 1) <= |v| < 2**e.
_X_MIN, _X_MAX = -324, 308
_E_MIN, _E_MAX = -1073, 1024


@functools.cache
def _decimal_tables():
    """The decimal step's tables, built on first use (a few ms).

    By e - _E_MIN: ``x_of_e``, floor((e - 1) log10(2)), the decimal exponent
    of 2**(e - 1); ``ceil_of_e``, the least double >= 10**(x_of_e + 1).
    By x - _X_MIN: ``limbs``, the 128-bit truncation P in [2**127, 2**128)
    of 10**(16 - x) = P * 2**t as four 32-bit limbs, low first; ``r_of_x``,
    -43 - t.  Then |v| = f * 2**(e - 53) with f < 2**53 gives
    |v| * 10**(16 - x) ~ f * P / 2**(96 + r), r = r_of_x - e.
    """
    xs = range(_X_MIN, _X_MAX + 1)
    limbs = np.empty((4, len(xs)), dtype=np.uint64)
    r_of_x = np.empty(len(xs), dtype=np.int64)
    ceil10 = np.empty(len(xs))
    for col, x in enumerate(xs):
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        t = num.bit_length() - den.bit_length() - 128
        p = (num << -t) // den if t < 0 else num // (den << t)
        if p >> 128:
            p, t = p >> 1, t + 1
        limbs[:, col] = [(p >> 32 * j) & 0xFFFFFFFF for j in range(4)]
        r_of_x[col] = -43 - t
        d = float(f"1e{x}")
        num, den = d.as_integer_ratio()
        if (num * 10**-x < den) if x < 0 else (num < 10**x * den):
            d = math.nextafter(d, math.inf)
        ceil10[col] = d
    x_of_e = (np.arange(_E_MIN - 1, _E_MAX) * 78913) >> 18
    return x_of_e, ceil10[x_of_e + 1 - _X_MIN], limbs, r_of_x


# Times a word with bits only at 8k, the bits gathered into its top byte.
_GATHER = _U64(0x0102040810204080)
# Per byte: adding 0x7F to a digit 0-9 sets bit 7 exactly when it is not 0.
_BYTE_7F, _BYTE_80 = _U64(0x7F7F7F7F7F7F7F7F), _U64(0x8080808080808080)


def _eight_digits(x):
    """The eight decimal digits of each x < 10**8 as the bytes of a uint64:
    digit values 0-9, the leading digit in the lowest byte.

    Each step splits every lane in two by a multiply-shift quotient, exact
    for the lane's range: 10**4 into two 32-bit lanes, 100 into 16-bit
    lanes, 10 into bytes.
    """
    hi = x // _U64(10000)
    v = hi | ((x - hi * _U64(10000)) << _U64(32))
    q = ((v * _U64(5243)) >> _U64(19)) & _U64(0x0000007F0000007F)
    v = q | ((v - q * _U64(100)) << _U64(16))
    q = ((v * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)
    return q | ((v - q * _U64(10)) << _U64(8))


def _format_python(values) -> np.ndarray:
    """Python's ``%.17g`` of each value, as ``S24``."""
    text = b"%.17g\n" * len(values) % tuple(values.tolist())
    return np.array(text.split(), dtype="S24")


def _format_all(values) -> np.ndarray:
    """``%.17g`` of each value, as fixed-width bytes (``S24`` fits every double).

    The bytes are Python's for every float64; see the module docstring for
    the method and for the values it hands to Python.
    """
    v = np.asarray(values, dtype=np.float64)
    digits, x, slow = _decimal(v)
    out = _layout(digits, x, np.signbit(v))
    slow = np.flatnonzero(slow)
    if len(slow):
        out[slow] = _format_python(v[slow])
    return out


def _decimal(v):
    """``(digits, x, slow)``: |v| rounds half up to ``digits * 10**(x - 16)``
    with 17 digits (``digits`` is 0 and ``x`` 0 for a zero); ``slow`` marks
    the values this cannot settle (ties, ``nan``, ``inf``)."""
    special = ~np.isfinite(v)
    zero = v == 0
    a = np.abs(v)
    a[special | zero] = 1.0
    m, e = np.frexp(a)  # subnormals included
    f = np.ldexp(m, 53).astype(np.uint64)
    del m
    x_of_e, ceil_of_e, limbs, r_of_x = _decimal_tables()
    e_col = e - _E_MIN
    x = x_of_e[e_col] + (a >= ceil_of_e[e_col])
    del a, e_col
    col = x - _X_MIN
    digits, frac = _scaled(f, np.take(limbs, col, axis=1), (r_of_x[col] - e).astype(np.uint64))
    half = _U64(1 << 63)
    digits += frac > half
    slow = special | (frac - (half - _U64(8)) <= _U64(16))
    carry = digits == _U64(10**17)
    digits[carry] = _U64(10**16)
    x += carry
    digits[zero] = 0
    return digits, x, slow


def _scaled(f, p, r):
    """Integer part and top 64 fraction bits of f * P / 2**(96 + r), for
    f < 2**53, P < 2**128 as four 32-bit limbs ``p`` and r in 27 ... 31."""
    p0, p1, p2, p3 = p
    # f * P as 32-bit limbs l1 ... l5; l0 only feeds its carry.
    f0, f1 = f & _LIMB, f >> _U64(32)
    t = f0 * p0
    t = f0 * p1 + (t >> _U64(32))
    l1 = t & _LIMB
    t = f0 * p2 + (t >> _U64(32))
    l2 = t & _LIMB
    t = f0 * p3 + (t >> _U64(32))
    l3, l4 = t & _LIMB, t >> _U64(32)
    t = f1 * p0 + l1
    l1 = t & _LIMB
    t = f1 * p1 + l2 + (t >> _U64(32))
    l2 = t & _LIMB
    t = f1 * p2 + l3 + (t >> _U64(32))
    l3 = t & _LIMB
    t = f1 * p3 + l4 + (t >> _U64(32))
    l4, l5 = t & _LIMB, t >> _U64(32)
    r64, r32 = _U64(64) - r, _U64(32) - r
    return (l5 << r64) | (l4 << r32) | (l3 >> r), (l3 << r64) | (l2 << r32) | (l1 >> r)


#: Notation kinds: 0 ... 20 for fixed notation at decimal exponents -4 ... 16,
#: then exponential notation.
_EXPONENTIAL = 21


@functools.cache
def _layout_table():
    """The layout step's tables, built on first use.

    By decimal exponent x (column x - _X_MIN): ``kind``, the notation kind,
    and ``suffix``, the exponent suffix ("e-05", "e+308") as a little-endian
    word, 0 in fixed notation.  By sign s, kind k and c, the count of digits
    up to the last nonzero one less one (row (22 s + k) * 17 + c):
    ``source``, the byte of the source row (see ``_layout``) that each of
    the 24 bytes of the text is, a NUL past its end.
    """
    xs = range(_X_MIN, _X_MAX + 1)
    kind = np.array([x + 4 if -4 <= x <= 16 else _EXPONENTIAL for x in xs])
    suffix = np.array(
        [int.from_bytes(b"e%+03d" % x, "little") if k == _EXPONENTIAL else 0
         for x, k in zip(xs, kind)],
        dtype=np.uint64,
    )
    # Source row bytes: digit 0 at 16, digit j > 0 at j - 1, then the rest.
    digit = [16, *range(16)]
    minus, point, zero, nul, suffix_bytes = 17, 18, 19, 20, [24, 25, 26, 27, 28]
    source = np.full((2, _EXPONENTIAL + 1, 17, 24), nul, dtype=np.intp)
    for k, c in itertools.product(range(_EXPONENTIAL + 1), range(17)):
        kept = digit[: c + 1]
        if k == _EXPONENTIAL:
            text = kept[:1] + ([point] + kept[1:] if c else []) + suffix_bytes
        elif k < 4:  # 0.000ddd: 3 - k zeros after the point
            text = [zero, point] + [zero] * (3 - k) + kept
        else:  # k - 3 integer digits, then the point if a kept digit follows
            text = digit[: k - 3] + ([point] + kept[k - 3 :] if c > k - 4 else [])
        source[0, k, c, : len(text)] = text
        source[1, k, c, : len(text) + 1] = [minus, *text]
    return kind, suffix, source.reshape(-1, 24)


# "0" in each byte, which spells digit values 0-9 as ASCII; and source row
# bytes 16 ... 19: "0", which spells the leading digit, then "-", "." and "0".
_ASCII_ZEROS, _LEAD_WORD = _U64(0x3030303030303030), _U64(0x302E2D30)


def _layout(digits, x, neg) -> np.ndarray:
    """``%.17g`` text of ``(-1)**neg * digits * 10**(x - 16)``, as ``S24``.

    ``digits`` has 17 digits, or is 0 with ``x`` 0.  Each value has a
    32-byte source row of four little-endian words: digits 1 ... 16 in
    ASCII (``_eight_digits`` of each half); the leading digit, ``-``,
    ``.``, ``0`` and four NULs; and the exponent suffix, NUL-padded.  The
    text is the 24 source bytes that its row of ``_layout_table()`` names
    for the value's sign, notation kind and digits kept, in one ``np.take``.
    """
    kind, suffix, source = _layout_table()
    eight = _eight_digits(np.array(np.divmod(digits % _U64(10**16), _U64(10**8))))
    col = x - _X_MIN
    src = np.stack([*(eight | _ASCII_ZEROS), digits // _U64(10**16) | _LEAD_WORD, suffix[col]], axis=1)
    # Bit k of ``marks`` is set when digit k + 1 is not 0 (k < 16), so its
    # frexp exponent is the count of digits kept less one.
    marks = ((((eight + _BYTE_7F) & _BYTE_80) >> _U64(7)) * _GATHER) >> _U64(56)
    marks = marks[0] | (marks[1] << _U64(8))
    del eight
    row = (neg * (_EXPONENTIAL + 1) + kind[col]) * 17 + np.frexp(marks.astype(np.float64))[1]
    del marks, col
    at = np.take(source, row, axis=0)
    at += np.arange(0, 32 * len(digits), 32)[:, None]
    return np.take(src.astype("<u8", copy=False).view(np.uint8), at).view("S24").ravel()


#: Matrix cells per tile.  A tile is assembled in one record buffer and
#: written with one call, so the writer's buffers stay a few hundred bytes
#: per tile cell whatever the size of the matrix.
_TILE_CELLS = 2048


def _as_bytes(strings) -> np.ndarray:
    """``S24`` strings as rows of 24 NUL-padded bytes."""
    return strings.view(np.uint8).reshape(len(strings), 24)


def _unsign(first):
    """Turn a leading ``-`` into a NUL: ``first`` is a view of the first bytes."""
    first[first == ord("-")] = 0


def _cell_text(values, full) -> np.ndarray:
    """The text fields of fresh cells as (cells, fields, 24) NUL-padded bytes.

    ``re`` alone, or with ``full`` ``re``, ``im`` and ``abs``, where a zero
    ``im`` is spelled by its sign and its ``abs`` is ``re`` without the sign.
    """
    re = values.real
    out = np.zeros((len(re), 3 if full else 1, 24), dtype=np.uint8)
    out[:, 0] = _as_bytes(_format_all(re))
    if full:
        im = values.imag
        zero = im == 0
        fresh = np.flatnonzero(~zero)
        out[fresh, 1] = _as_bytes(_format_all(im[fresh]))
        # np.hypot is the libm hypot of Python's abs(complex); np.abs
        # is a SIMD routine that can differ from it in the last bit.
        out[fresh, 2] = _as_bytes(_format_all(np.hypot(re[fresh], im[fresh])))
        out[zero, 1, 0] = np.signbit(im[zero]) * np.uint8(ord("-"))
        out[zero, 1, 1] = ord("0")
        out[zero, 2] = out[zero, 0]
        _unsign(out[:, 2, 0])  # no formatted abs has a sign
    return out


def export_matrix_heatmap(matrix, row_grid, col_grid, path) -> Path:
    """Write a real or complex matrix as a long CSV: omega,omega_prime,re,im,abs.

    One row per element in row-major order; ``omega`` labels the matrix row,
    ``omega_prime`` the column.  The bytes are those of ``write_csv`` fed one
    element at a time (``re``, ``im`` and ``abs(complex)``, each ``%.17g``),
    for every input; only the number of values formatted depends on it:

    - A square matrix that equals its transpose bit for bit
      (``takagi._bit_symmetric``: a ``-0.0``/``+0.0`` mirror pair is not) has
      each upper-triangle element formatted once.  Its fields go to a packed
      byte table, and cell (i, j < i) copies the entry of (j, i).  Any other
      matrix formats every cell and stores nothing.
    - Where ``im`` is exactly zero, nothing more is formatted: ``im`` reads
      ``0`` or ``-0`` by its sign bit, and ``abs`` is the ``re`` string
      without a leading ``-``.  This is exact, since hypot(x, +-0) = |x|
      and ``%.17g`` of -x is ``-`` followed by ``%.17g`` of x (``nan``
      carries no sign).

    Values are formatted by ``_format_all``, which gives Python's ``%.17g``
    bytes (see the module docstring).  The rows go out in tiles of about
    ``_TILE_CELLS`` cells.  Each cell of a tile is a fixed-width record:
    every field sits NUL-padded in its own slot, followed by its ``,`` or
    newline.  Dropping the NULs of the tile's buffer gives its exact text,
    which takes one write.  So the writer holds the tile, the packed table
    of a symmetric matrix and nothing else that grows with the matrix.
    """
    mat = _float_or_complex(matrix)
    rows_w = np.asarray(row_grid, dtype=float)
    cols_w = np.asarray(col_grid, dtype=float)
    if mat.shape != (len(rows_w), len(cols_w)):
        raise ValueError(
            f"matrix shape {mat.shape} does not match grids "
            f"({len(rows_w)} x {len(cols_w)})"
        )
    n_rows, n = mat.shape
    # A float64 matrix has no imaginary part to build.
    im = mat.imag if np.iscomplexobj(mat) else None
    mirrored = mat.shape == (n, n) and _bit_symmetric(mat)
    # im and abs are formatted only when some im is not zero.
    full = im is not None and bool(im.any())
    row_text, col_text = _as_bytes(_format_python(rows_w)), _as_bytes(_format_python(cols_w))
    widths = [row_text.shape[1], col_text.shape[1], 24, 24 if full else 2, 24]
    slots = np.cumsum([0] + [w + 1 for w in widths])
    o_col, o_re, o_im, o_abs, width = slots[1:]
    tile_rows = max(1, _TILE_CELLS // max(n, 1))
    buf = np.zeros((min(tile_rows, n_rows), n, width), dtype=np.uint8)
    buf[..., slots[1:-1] - 1] = ord(",")
    buf[..., -1] = ord("\n")
    buf[..., o_col : o_col + widths[1]] = col_text
    if not full:
        buf[..., o_im + 1] = ord("0")
    if mirrored:
        # Packed upper triangle: element (i, j >= i) sits at start[i] + j - i.
        k = np.arange(n + 1)
        start = k * (2 * n - k + 1) // 2
        table = np.empty((start[-1], 3 if full else 1, 24), dtype=np.uint8)
        cols = np.arange(n)
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(b"omega,omega_prime,re,im,abs\n")
        done = 0  # packed entries in the table
        for r0 in range(0, n_rows, tile_rows):
            r1 = min(r0 + tile_rows, n_rows)
            rec = buf[: r1 - r0]
            rec[..., : widths[0]] = row_text[r0:r1, None]
            if mirrored:
                # Formatted ahead in batches of a tile's size: the upper
                # triangle of the last rows is short.
                while done < start[r1]:
                    stop = min(done + _TILE_CELLS, start[n])
                    p = np.arange(done, stop)
                    i = np.searchsorted(start, p, side="right") - 1
                    table[done:stop] = _cell_text(mat[i, p - start[i] + i], full)
                    done = stop
                rows = np.arange(r0, r1)[:, None]
                cells = np.take(table, start[np.minimum(rows, cols)] + np.abs(rows - cols), axis=0)
            else:
                cells = _cell_text(mat[r0:r1].ravel(), full)
                cells = cells.reshape(r1 - r0, n, *cells.shape[1:])
            rec[..., o_re : o_re + 24] = cells[..., 0, :]
            if full:
                rec[..., o_im : o_im + 24] = cells[..., 1, :]
                rec[..., o_abs : o_abs + 24] = cells[..., 2, :]
            else:
                if im is not None:
                    rec[..., o_im] = np.signbit(im[r0:r1]) * np.uint8(ord("-"))
                rec[..., o_abs : o_abs + 24] = cells[..., 0, :]
                _unsign(rec[..., o_abs])
            fh.write(rec[rec != 0])
    return path
