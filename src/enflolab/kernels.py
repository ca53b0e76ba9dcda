"""Low-level accumulation kernels over flat numpy arrays."""

from __future__ import annotations

import numpy as np

__all__ = ["window_sums", "gather_mean"]


def window_sums(blocks: np.ndarray, start: int, width: int) -> np.ndarray:
    """Circular windowed sums along the last axis of a (rows, length) array.

    out[r, s] = sum over t < width of blocks[r, (s + start + t) mod length].
    """
    rows, length = blocks.shape
    if not 1 <= width <= length:
        raise ValueError("window width must lie in [1, circle length]")
    a = start % length
    ext = np.concatenate([blocks, blocks, blocks], axis=1)
    cs = np.zeros((rows, 3 * length + 1), dtype=np.float64)
    np.cumsum(ext, axis=1, out=cs[:, 1:])
    return cs[:, a + width : a + width + length] - cs[:, a : a + length]


def gather_mean(values: np.ndarray, index_table: np.ndarray) -> np.ndarray:
    """Mean over taps t of values[index_table[t]], accumulated in tap order."""
    acc = np.zeros_like(values)
    for t in range(index_table.shape[0]):
        acc += values[index_table[t]]
    return acc / index_table.shape[0]
