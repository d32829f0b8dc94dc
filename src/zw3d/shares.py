"""(2,2) visual secret sharing between clip features and watermarks.

A binarized feature becomes a *master share*: each feature bit expands to a
2x2 block, diagonal for 1, anti-diagonal for 0. The stored *ownership share*
repeats the master block where the watermark bit is white and complements it
where black. Stacking (AND of white bits, the physical transparency model)
makes white-watermark blocks sum to 2 and black ones to 0, so thresholding
block sums at 2 recovers the watermark exactly. Either share alone is a
uniform coin-flip pattern and reveals nothing.

Bit convention everywhere: 1 = white, 0 = black. Note PBM files use the
opposite polarity; the load/save helpers below translate.
"""

from __future__ import annotations

import numpy as np

from .features import FeatureVector, feature_values
from .frameio import read_pbm, write_pbm

WATERMARK_SIDE = 40
SHARE_SIDE = 80

DIAG = np.array([[1, 0], [0, 1]], dtype=np.uint8)
ANTI = np.array([[0, 1], [1, 0]], dtype=np.uint8)


def _as_bits(a: np.ndarray, shape: tuple[int, ...], what: str) -> np.ndarray:
    a = np.asarray(a)
    if a.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {a.shape}")
    if not np.isin(a, (0, 1)).all():
        raise ValueError(f"{what} must be binary")
    return a.astype(np.uint8)


def _blocks(share: np.ndarray) -> np.ndarray:
    """View an 80x80 share as (40, 40, 2, 2) non-overlapping blocks."""
    n = share.shape[0] // 2
    return share.reshape(n, 2, n, 2).transpose(0, 2, 1, 3)


def validate_share(share: np.ndarray) -> np.ndarray:
    """Check the share invariant: every 2x2 block is diagonal or anti-diagonal."""
    share = _as_bits(share, (SHARE_SIDE, SHARE_SIDE), "share")
    b = _blocks(share)
    ok = (b[..., 0, 0] == b[..., 1, 1]) & (b[..., 0, 1] == b[..., 1, 0]) & (
        b[..., 0, 0] != b[..., 0, 1]
    )
    if not ok.all():
        raise ValueError("malformed share: block is neither diagonal nor anti-diagonal")
    return share


def binarize_feature(fn: FeatureVector | np.ndarray) -> np.ndarray:
    """Threshold a feature at its median into 1600 bits.

    Uses the lower median (even length), strict >, so ties fall to 0. An
    all-equal feature (a degenerate one is all zeros) carries no information
    and is rejected.
    """
    values = feature_values(fn)
    if np.ptp(values) == 0:
        raise ValueError("non-informative feature")
    t = np.sort(values)[(len(values) - 1) // 2]
    return (values > t).astype(np.uint8)


def rearrange(v: np.ndarray) -> np.ndarray:
    """Row-major reshape of 1600 bits into the 40x40 intermediate matrix."""
    v = _as_bits(v, (WATERMARK_SIDE * WATERMARK_SIDE,), "bit vector")
    return v.reshape(WATERMARK_SIDE, WATERMARK_SIDE)


def build_master_share(V: np.ndarray) -> np.ndarray:
    """Expand each bit of a 40x40 matrix into its 2x2 share block."""
    V = _as_bits(V, (WATERMARK_SIDE, WATERMARK_SIDE), "intermediate matrix")
    return (np.kron(V, DIAG) + np.kron(1 - V, ANTI)).astype(np.uint8)


def build_ownership_share(master: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Re-use the master block where the watermark is white, complement it where black."""
    master = validate_share(master)
    W = _as_bits(W, (WATERMARK_SIDE, WATERMARK_SIDE), "watermark")
    keep = np.repeat(np.repeat(W, 2, axis=0), 2, axis=1)
    return np.where(keep == 1, master, 1 - master).astype(np.uint8)


def stack_shares(master: np.ndarray, ownership: np.ndarray) -> np.ndarray:
    """Overlay two shares: a stacked position is white iff white in both."""
    master = validate_share(master)
    ownership = validate_share(ownership)
    return (master & ownership).astype(np.uint8)


def recover_watermark(stacked: np.ndarray) -> np.ndarray:
    """White where a stacked 2x2 block keeps at least 2 white subpixels."""
    stacked = _as_bits(stacked, (SHARE_SIDE, SHARE_SIDE), "stack result")
    sums = _blocks(stacked).sum(axis=(2, 3))
    return (sums >= 2).astype(np.uint8)


def ber(w: np.ndarray, w_rec: np.ndarray) -> float:
    """Bit error rate between two 40x40 watermarks."""
    w = _as_bits(w, (WATERMARK_SIDE, WATERMARK_SIDE), "watermark")
    w_rec = _as_bits(w_rec, (WATERMARK_SIDE, WATERMARK_SIDE), "watermark")
    return float(np.not_equal(w, w_rec).sum()) / w.size


def recover_from_feature(fn, ownership: np.ndarray) -> np.ndarray:
    """Regenerate the master share from a query feature and stack it.

    This is the identification path: binarize the feature, expand it into a
    master share, overlay the stored ownership share, and threshold the block
    sums back into a 40x40 watermark.
    """
    master = build_master_share(rearrange(binarize_feature(fn)))
    return recover_watermark(stack_shares(master, ownership))


# ---------------------------------------------------------------------------
# PBM import/export (PBM stores 1=black, we store 1=white)
# ---------------------------------------------------------------------------

def load_watermark(path) -> np.ndarray:
    bits = read_pbm(path)
    if bits.shape != (WATERMARK_SIDE, WATERMARK_SIDE):
        raise ValueError(f"watermark must be 40x40, got {bits.shape}")
    return (1 - bits).astype(np.uint8)


def save_watermark(path, w: np.ndarray) -> None:
    w = _as_bits(w, (WATERMARK_SIDE, WATERMARK_SIDE), "watermark")
    write_pbm(path, 1 - w)


def load_share(path) -> np.ndarray:
    bits = read_pbm(path)
    return validate_share((1 - bits).astype(np.uint8))


def save_share(path, share: np.ndarray) -> None:
    share = validate_share(share)
    write_pbm(path, 1 - share)
