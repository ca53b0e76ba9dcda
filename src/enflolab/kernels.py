"""Low-level accumulation kernels over flat numpy arrays."""

from __future__ import annotations

import numpy as np

__all__ = ["window_sums", "gather_mean"]


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def window_sums(blocks: np.ndarray, start: int, width: int, step: int = 1) -> np.ndarray:
    """Strided circular windowed sums along the last axis of a (rows, length) array.

    out[r, s] = sum over t < width of blocks[r, (s + start + t * step) mod length].

    One copy of wrapped slices unrolls every window, then the sum is built
    by the binary digits of width. Doubling a window of c taps adds the span
    to itself c * step columns on, and each set digit after the first adds
    its slice to the output: floor(log2 width) doublings plus
    popcount(width) - 1 digit adds, at most 2 floor(log2 width) adds in all.
    A cumsum difference would cost O(length) per row at any width and
    subtracts large partial sums.

    Allocation: the unrolled span, one array per doubling below the top
    digit, and the (rows, length) output. The top digit's doubling is built
    only over the length columns it reads, and the last add is written into
    it, so a width-3 call allocates the span and the output alone. The
    output is a fresh, writable array that never shares memory with blocks.
    """
    if np.ndim(blocks) != 2:
        raise ValueError("blocks must be a 2-D (rows, length) array")
    if not (_is_integer(start) and _is_integer(width) and _is_integer(step)):
        raise ValueError("window start, width and step must be integers")
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
    while rest > 1:
        if rest & 1:
            part = span[:, offset : offset + length]
            out = part if out is None else out + part
            offset += taps * step
        rest >>= 1
        shift = taps * step
        if rest > 1:
            span = span[:, :-shift] + span[:, shift:]
        else:
            # the top digit reads only columns [offset, offset + length)
            end = offset + length
            span = span[:, offset:end] + span[:, offset + shift : end + shift]
            offset = 0
        taps *= 2
    part = span[:, offset : offset + length]
    return part if out is None else np.add(out, part, out=part)


def gather_mean(values: np.ndarray, index_table: np.ndarray) -> np.ndarray:
    """Mean over taps t of values[index_table[t]], accumulated in tap order."""
    acc = np.zeros_like(values)
    for t in range(index_table.shape[0]):
        acc += values[index_table[t]]
    return acc / index_table.shape[0]
