"""Unit conventions and conversions used across the package.

Internal units are chosen so the characteristic times of the crystal
problem are order unity: angular frequencies and detunings in rad/fs,
lengths in mm, wave vectors in rad/mm, wavelengths in micrometres at
the dispersion interfaces (nanometres accepted at config boundaries).
"""

from __future__ import annotations

#: Speed of light in micrometres per femtosecond.
C_UM_PER_FS = 0.299792458

#: Micrometres per millimetre.
UM_PER_MM = 1.0e3


def nm_to_um(value_nm: float) -> float:
    return value_nm * 1.0e-3
