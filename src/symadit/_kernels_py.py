"""Vectorized numpy periodic-distance kernels, re-exported by symadit.kernels.

Each fractional difference is wrapped into [-0.5, 0.5) and the shortest of
its 27 images in the 3x3x3 sweep is taken: exact on a reduced cell.

The distance matrix can skip pairs beyond a cutoff. With the wrapped
difference w (each |w_i| <= 1/2), every image w + s has |(w + s)_i| >= |w_i|,
so it lies at least |w_i| h_i away on each axis i, where h_i is the spacing
of the lattice planes normal to axis i. That holds on any cell, reduced or
not. A pair is skipped when that bound exceeds the cutoff times 1 + 1e-9 on
some axis; a NaN difference bounds nothing, so it is measured."""

from __future__ import annotations

import itertools

import numpy as np

# the 3x3x3 image sweep as s = 0 and one shift s of each pair +-s
_SHIFTS = np.array(list(itertools.product((-1, 0, 1), repeat=3))[13:],
                   dtype=np.float64)
_BLOCK = 1024  # pairs per sweep block: no temporary exceeds (1024, 14)


def _min_image_sq(diff: np.ndarray, lattice: np.ndarray) -> np.ndarray:
    """(P,) least squared length over the 27 images of each fractional
    difference, in Gram form: |c +- s|^2 = |c|^2 + |s|^2 +- 2 c.s, so each
    pair +-s gives |c|^2 + |s|^2 - 2|c.s|, and s = 0 gives |c|^2. The
    products c.s are formed elementwise."""
    shift_cart = _SHIFTS @ lattice                     # (14, 3)
    shift_sq = np.einsum("sk,sk->s", shift_cart, shift_cart)
    two_s = 2.0 * shift_cart
    out = np.empty(len(diff))
    for lo in range(0, len(diff), _BLOCK):
        d = diff[lo:lo + _BLOCK]
        cart = (d - np.round(d)) @ lattice             # wrap into [-0.5, 0.5)
        cross = cart[:, :1] * two_s[:, 0]              # 2 c.s, (P, 14)
        cross += cart[:, 1:2] * two_s[:, 1]
        cross += cart[:, 2:] * two_s[:, 2]
        np.subtract(shift_sq, np.abs(cross, out=cross), out=cross)
        out[lo:lo + _BLOCK] = np.einsum("pk,pk->p", cart, cart) + cross.min(1)
    return np.maximum(out, 0.0)


def min_pairwise_distance(frac: np.ndarray, lattice: np.ndarray,
                          reps=None) -> float:
    """Minimum distance over atom pairs and periodic self-images (Angstrom).

    frac: (M, 3) fractional coordinates; lattice: (3, 3) row-vector cell.
    A single atom yields its shortest self-image distance in the sweep.
    reps: indices of one representative atom per symmetry orbit, or None,
    which makes every atom a representative. The pairs measured are (r, j)
    for each representative r and each other atom j that is not a
    representative or comes after r; with every atom a representative that
    is the pairs i < j. Sqrt of the minimum square equals the minimum sqrt.
    """
    frac = np.asarray(frac, dtype=np.float64)
    lattice = np.asarray(lattice, dtype=np.float64)
    self_images = _SHIFTS[1:] @ lattice
    best = float(np.min(np.einsum("sk,sk->s", self_images, self_images)))
    m = frac.shape[0]
    reps = np.arange(m) if reps is None else np.asarray(reps, dtype=np.intp)
    other = np.ones(m, dtype=bool)
    other[reps] = False
    row, j = np.nonzero((np.arange(m) > reps[:, None]) | other)
    i = reps[row]
    best = np.min(_min_image_sq(frac[i] - frac[j], lattice), initial=best)
    return float(np.sqrt(best))


def min_image_distance_matrix(
    frac_a: np.ndarray, frac_b: np.ndarray, lattice: np.ndarray,
    cutoff: float = np.inf,
) -> np.ndarray:
    """(N, M) matrix of minimum-image distances under the 27-image sweep.

    A pair whose plane-spacing bound |w_i| h_i exceeds cutoff * (1 + 1e-9)
    on some axis i is not measured and reads inf; the margin covers the
    rounding of the bound and of the sweep, so every skipped pair's sweep
    distance is > cutoff. Every other entry is bitwise the uncut one: its
    difference row goes through the same sweep. A NaN difference bounds
    nothing on its axis, so a pair the other axes admit is measured and
    reads NaN, as without a cutoff. 1 / h_i is the norm of column i of
    inv(lattice)."""
    frac_a = np.asarray(frac_a, dtype=np.float64)
    frac_b = np.asarray(frac_b, dtype=np.float64)
    lattice = np.asarray(lattice, dtype=np.float64)
    reach = cutoff * (1.0 + 1e-9) * np.linalg.norm(np.linalg.inv(lattice),
                                                   axis=0)
    near = np.ones((len(frac_a), len(frac_b)), dtype=bool)
    for k in range(3):            # |w_k| > reach_k is |w_k| h_k > the cutoff
        w = frac_a[:, k, None] - frac_b[None, :, k]
        w -= np.round(w)
        near &= ~(np.abs(w, out=w) > reach[k])
    i, j = np.nonzero(near)
    out = np.full(near.shape, np.inf)
    out[i, j] = np.sqrt(_min_image_sq(frac_a[i] - frac_b[j], lattice))
    return out
