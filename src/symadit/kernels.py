"""Periodic-distance kernels (numpy only), exact on a reduced cell."""

from __future__ import annotations

from ._kernels_py import min_image_distance_matrix, min_pairwise_distance

__all__ = ["backend", "min_image_distance_matrix", "min_pairwise_distance"]


def backend() -> str:
    """Name of the kernel implementation, recorded in benchmark run environments."""
    return "numpy"
