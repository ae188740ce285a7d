"""Vectorized numpy periodic-distance kernels, re-exported by symadit.kernels."""

from __future__ import annotations

import numpy as np

# 27 lattice image shifts of the 3x3x3 supercell sweep
_SHIFTS = np.array(
    [[i, j, k] for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)],
    dtype=np.float64,
)


def min_pairwise_distance(frac: np.ndarray, lattice: np.ndarray) -> float:
    """Minimum distance over atom pairs and periodic self-images (Angstrom).

    frac: (M, 3) fractional coordinates; lattice: (3, 3) row-vector cell.
    A single atom yields its shortest self-image distance in the sweep.
    Pairs i < j only; sqrt of the minimum square equals the minimum sqrt.
    """
    frac = np.asarray(frac, dtype=np.float64)
    lattice = np.asarray(lattice, dtype=np.float64)
    shift_cart = _SHIFTS @ lattice                     # (27, 3)
    lattice_norms = np.linalg.norm(shift_cart, axis=1)
    best = float(np.min(lattice_norms[lattice_norms > 1e-12]))
    m = frac.shape[0]
    if m >= 2:
        i, j = np.triu_indices(m, k=1)
        cart = (frac[i] - frac[j]) @ lattice           # (P, 3)
        d = cart[:, None, :] + shift_cart[None, :, :]  # (P, 27, 3)
        best = min(best, float(np.sqrt(np.min(np.sum(d * d, axis=-1)))))
    return best


def min_image_distance_matrix(
    frac_a: np.ndarray, frac_b: np.ndarray, lattice: np.ndarray
) -> np.ndarray:
    """(N, M) matrix of minimum-image distances under the 27-image sweep."""
    frac_a = np.asarray(frac_a, dtype=np.float64)
    frac_b = np.asarray(frac_b, dtype=np.float64)
    lattice = np.asarray(lattice, dtype=np.float64)
    shift_cart = _SHIFTS @ lattice
    diff = frac_a[:, None, :] - frac_b[None, :, :]
    diff -= np.round(diff)                             # wrap into [-0.5, 0.5)
    cart = diff @ lattice
    d = cart[:, :, None, :] + shift_cart[None, None, :, :]
    return np.sqrt(np.sum(d * d, axis=-1)).min(axis=-1)
