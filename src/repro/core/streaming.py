"""The chunk-invariant fold behind the bit-identical streamed reductions.

:func:`sequential_bin_fold` adds a chunk's bins into a running total one at
a time, so a streamed per-OD sum matches the sum over the materialised cube
bit for bit however the stream is chunked.  The exact marts of
:mod:`repro.marts` fold through it.  The stable-fP fit of a stream is
:func:`repro.core.fitting.fit_stable_fp`, which reads a stream chunk by
chunk itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sequential_bin_fold"]


def sequential_bin_fold(into: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Fold ``block`` into ``into`` bin by bin, in place.

    Numpy's reduction over the leading axis of a C-contiguous cube is a
    plain sequential loop (pairwise summation only kicks in for contiguous
    last-axis reductions), so adding the bins one at a time — in order —
    produces *bitwise* the same array as ``cube.sum(axis=0)`` over the
    whole series no matter how the series is chunked.  Chunk-level partial sums
    (``into += block.sum(axis=0)``) do not have this property: they
    re-associate the additions at chunk boundaries.  Every streamed
    reduction that promises bit-identity with its materialised oracle (the
    exact marts of :mod:`repro.marts`) folds through this helper.
    """
    for plane in block:
        into += plane
    return into
