"""Low-level accumulation kernels over flat numpy arrays."""

from __future__ import annotations

import numpy as np

__all__ = ["window_sums", "gather_mean"]


def window_sums(blocks: np.ndarray, start: int, width: int, step: int = 1) -> np.ndarray:
    """Strided circular windowed sums along the last axis of a (rows, length) array.

    out[r, s] = sum over t < width of blocks[r, (s + start + t * step) mod length].

    One copy of wrapped slices unrolls every window, then the sum is built
    by the binary digits of width: doubling a window of c taps costs one
    add of the span against itself c * step columns on, and each set digit
    adds its slice, so at most 2 ceil(log2 width) adds. A cumsum difference
    would cost O(length) per row at any width and subtracts large partial
    sums. The output never shares memory with blocks.
    """
    rows, length = blocks.shape
    if not 1 <= width <= length:
        raise ValueError("window width must lie in [1, circle length]")
    if step < 1:
        raise ValueError("window step must be positive")
    # span[:, c] = blocks[:, (start + c) mod length], copied slice by slice
    pieces, first, rest = [], start % length, length + (width - 1) * step
    while rest > 0:
        pieces.append(blocks[:, first : first + rest])
        rest -= pieces[-1].shape[1]
        first = 0
    # from here span[:, c] holds the sum of `taps` entries step apart from column c on
    span = np.concatenate(pieces, axis=1)
    out = None
    offset, taps, rest = 0, 1, width
    while True:
        if rest & 1:
            part = span[:, offset : offset + length]
            out = part if out is None else out + part
            offset += taps * step
        rest >>= 1
        if not rest:
            return out
        span = span[:, : -taps * step] + span[:, taps * step :]
        taps *= 2


def gather_mean(values: np.ndarray, index_table: np.ndarray) -> np.ndarray:
    """Mean over taps t of values[index_table[t]], accumulated in tap order."""
    acc = np.zeros_like(values)
    for t in range(index_table.shape[0]):
        acc += values[index_table[t]]
    return acc / index_table.shape[0]
