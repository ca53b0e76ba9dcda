"""Low-level accumulation kernels over flat numpy arrays."""

from __future__ import annotations

import numpy as np

__all__ = ["window_sums", "gather_mean"]


def window_sums(blocks: np.ndarray, start: int, width: int) -> np.ndarray:
    """Circular windowed sums along the last axis of a (rows, length) array.

    out[r, s] = sum over t < width of blocks[r, (s + start + t) mod length].

    One wrapped gather unrolls every window, then the sum is built by the
    binary digits of width: doubling a window of s columns costs one add,
    and each set digit adds its slice, so at most 2 ceil(log2 width) adds.
    A cumsum difference would cost O(length) per row at any width and
    subtracts large partial sums.
    """
    rows, length = blocks.shape
    if not 1 <= width <= length:
        raise ValueError("window width must lie in [1, circle length]")
    # span[:, c] holds the sum of the `step` columns from c on, unrolled
    span = blocks[:, (start + np.arange(length + width - 1)) % length]
    out = None
    offset, step, rest = 0, 1, width
    while True:
        if rest & 1:
            part = span[:, offset : offset + length]
            out = part if out is None else out + part
            offset += step
        rest >>= 1
        if not rest:
            return out
        span = span[:, :-step] + span[:, step:]
        step *= 2


def gather_mean(values: np.ndarray, index_table: np.ndarray) -> np.ndarray:
    """Mean over taps t of values[index_table[t]], accumulated in tap order."""
    acc = np.zeros_like(values)
    for t in range(index_table.shape[0]):
        acc += values[index_table[t]]
    return acc / index_table.shape[0]
