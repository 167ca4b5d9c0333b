"""Per-function derivative data at a point, and Levi form evaluation.

A WirtingerFrame collects the value, the first Wirtinger derivatives and the
mixed second-derivative (Levi) matrix of one scalar function at one point.
Frames are assembled from the derivative table that a ProblemSystem builds
for each defining function (trgeom._FnTable), evaluated at the point; finite
differences are kept only as a test oracle (fd_frame).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import Expr, eval_point, max_var_index, normalize
from .realpoly import TermPack, point_values, real_coords
from .trgeom import _FnTable


@dataclass(frozen=True)
class WirtingerFrame:
    """value, grad_z[j] = d/dz_j, grad_zbar[j] = d/dzbar_j, levi[j,k] = d2/dz_j dzbar_k."""

    value: complex
    grad_z: np.ndarray
    grad_zbar: np.ndarray
    levi: np.ndarray

    @property
    def n(self) -> int:
        return len(self.grad_z)


def frame(e: Expr, z: Sequence[complex]) -> WirtingerFrame:
    """Assemble the frame of e at z from its derivative table (trgeom._FnTable)."""
    n = len(z)
    if max_var_index(e) > n:
        raise ValueError(f"expression uses z{max_var_index(e)} but point has n={n}")
    t = _FnTable(normalize(e), n)
    pack = TermPack([t.value, *t.dz, *t.dzbar, *(q for row in t.levi for q in row)])
    vals = point_values(pack, [real_coords(z)])[0]
    return WirtingerFrame(complex(vals[0]), vals[1:n + 1], vals[n + 1:2 * n + 1],
                          vals[2 * n + 1:].reshape(n, n))


def levi_form(fr: WirtingerFrame, v: Sequence[complex]) -> complex:
    """Sum_{j,k} levi[j,k] * v_j * conj(v_k); degree-2 homogeneous in v."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (fr.n,):
        raise ValueError(f"direction has dimension {v.shape}, frame has n={fr.n}")
    return complex(v @ fr.levi @ np.conj(v))


def fd_frame(e: Expr, z: Sequence[complex], h: float = 1e-4) -> WirtingerFrame:
    """Frame computed purely by central finite differences (test oracle).

    d/dz = (d/dx - i d/dy)/2 and d/dzbar = (d/dx + i d/dy)/2; the Levi entry
    is the corresponding mixed second difference.  Accuracy is O(h^2).
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    n = len(z)
    z = [complex(p) for p in z]

    def f(pt: Sequence[complex]) -> complex:
        return eval_point(e, pt)

    def shifted(j: int, sj: complex, k: int | None = None, sk: complex = 0j) -> list[complex]:
        pt = list(z)
        pt[j] = pt[j] + sj
        if k is not None:
            pt[k] = pt[k] + sk
        return pt

    def d1(j: int, step: complex) -> complex:
        return (f(shifted(j, step)) - f(shifted(j, -step))) / (2 * h)

    def d2(j: int, sj: complex, k: int, sk: complex) -> complex:
        # works for j == k too: collapses to the 1-D second difference
        pp = f(shifted(j, sj, k, sk))
        pm = f(shifted(j, sj, k, -sk))
        mp = f(shifted(j, -sj, k, sk))
        mm = f(shifted(j, -sj, k, -sk))
        return (pp - pm - mp + mm) / (4 * h * h)

    hx, hy = complex(h, 0.0), complex(0.0, h)
    grad_z = np.array([(d1(j, hx) - 1j * d1(j, hy)) / 2 for j in range(n)])
    grad_zbar = np.array([(d1(j, hx) + 1j * d1(j, hy)) / 2 for j in range(n)])
    levi = np.empty((n, n), dtype=np.complex128)
    for j in range(n):
        for k in range(n):
            # d2/dz_j dzbar_k = (f_xx + i f_xy - i f_yx + f_yy)/4 in the (j,k) axes
            levi[j, k] = (d2(j, hx, k, hx) + 1j * d2(j, hx, k, hy)
                          - 1j * d2(j, hy, k, hx) + d2(j, hy, k, hy)) / 4
    return WirtingerFrame(f(z), grad_z, grad_zbar, levi)
