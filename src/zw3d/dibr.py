"""Left/right virtual view synthesis from a 2D frame plus depth map.

Standard horizontal-shift warp: each pixel gets a signed whole-pixel
disparity proportional to its depth above/below a convergence plane, scaled
by half the camera baseline (expressed as a fraction of frame width). Pixels
are forward-scattered along their row; nearer pixels (larger depth value) win
occlusion conflicts, and disocclusion holes are filled by extending the
horizontally nearest background (smaller-depth) neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frameio import FrameSequence


@dataclass(frozen=True)
class BaselineConfig:
    """Camera separation as a fraction of frame width, plus convergence depth.

    Baselines above 10% of the frame width are rejected: that is well past
    the comfortable viewing range and the warp model stops being meaningful.
    """

    baseline_fraction: float
    convergence_depth: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.baseline_fraction <= 0.1:
            raise ValueError("baseline_fraction must be in (0, 0.1]")
        if not 0.0 <= self.convergence_depth <= 1.0:
            raise ValueError("convergence_depth must be in [0, 1]")


def _scatter(frame: np.ndarray, depth: np.ndarray, shift: np.ndarray):
    """Forward-warp a frame by per-pixel column shifts with a z-buffer.

    Ties and occlusions resolve deterministically: larger depth wins, then
    larger source column. Returns (warped frame with holes, warped depth,
    filled mask).
    """
    h, w = depth.shape
    rows, cols = np.indices((h, w))
    tgt = cols + shift
    valid = (tgt >= 0) & (tgt < w)
    flat_tgt = (rows * w + np.clip(tgt, 0, w - 1)).ravel()
    vmask = valid.ravel()

    # unique integer priority per source pixel: depth major, column minor
    depth_q = np.rint(depth * 65535.0).astype(np.int64)
    prio = (depth_q * w + cols).ravel()
    priobuf = np.full(h * w, -1, dtype=np.int64)
    np.maximum.at(priobuf, flat_tgt[vmask], prio[vmask])
    winner = vmask & (priobuf[flat_tgt] == prio)

    out = np.zeros_like(frame)
    out_flat = out.reshape(h * w, -1)
    src_flat = frame.reshape(h * w, -1)
    out_flat[flat_tgt[winner]] = src_flat[winner]
    out_depth = np.zeros(h * w, dtype=np.float64)
    out_depth[flat_tgt[winner]] = depth.ravel()[winner]
    filled = priobuf >= 0
    return out, out_depth.reshape(h, w), filled.reshape(h, w)


def _fill_holes(img: np.ndarray, wdepth: np.ndarray, filled: np.ndarray) -> np.ndarray:
    """Extend the nearer-in-row background neighbor into unfilled positions."""
    if filled.all():
        return img
    h, w = filled.shape
    cols = np.broadcast_to(np.arange(w), (h, w))
    left = np.maximum.accumulate(np.where(filled, cols, -1), axis=1)
    right = np.minimum.accumulate(np.where(filled, cols, w)[:, ::-1], axis=1)[:, ::-1]

    rows = np.broadcast_to(np.arange(h)[:, None], (h, w))
    dleft = np.where(left >= 0, wdepth[rows, np.clip(left, 0, w - 1)], np.inf)
    dright = np.where(right < w, wdepth[rows, np.clip(right, 0, w - 1)], np.inf)
    use_left = dleft <= dright
    src = np.where(use_left, np.clip(left, 0, w - 1), np.clip(right, 0, w - 1))
    have_any = (left >= 0) | (right < w)

    take = ~filled & have_any
    img = img.copy()
    img[take] = img[rows[take], src[take]]
    return img


def synthesize_views(frame: np.ndarray, depth: np.ndarray, cfg: BaselineConfig):
    """Render the (left, right) virtual views of one frame.

    ``depth`` is a grayscale map in [0, 1] matching the frame size; disparity
    is round((baseline_fraction * width / 2) * (depth - convergence_depth))
    whole pixels, applied as +p for the left view and -p for the right.
    """
    frame = np.asarray(frame)
    depth = np.asarray(depth, dtype=np.float64)
    if depth.shape != frame.shape[:2]:
        raise ValueError(f"frame {frame.shape[:2]} and depth {depth.shape} sizes differ")
    w = depth.shape[1]
    half_baseline = cfg.baseline_fraction * w / 2.0
    p = np.rint(half_baseline * (depth - cfg.convergence_depth)).astype(np.int64)
    views = []
    for shift in (p, -p):
        warped, wdepth, filled = _scatter(frame, depth, shift)
        views.append(_fill_holes(warped, wdepth, filled))
    return views[0], views[1]


def synthesize_clip(seq2d: FrameSequence, seqdepth: FrameSequence, cfg: BaselineConfig):
    """Per-frame view synthesis over a clip; returns (left, right) sequences."""
    if len(seq2d) != len(seqdepth):
        raise ValueError(f"frame-count mismatch: {len(seq2d)} vs {len(seqdepth)}")
    lefts, rights = [], []
    for frame, dframe in zip(seq2d.frames, seqdepth.frames):
        left, right = synthesize_views(frame, dframe.astype(np.float64) / 255.0, cfg)
        lefts.append(left)
        rights.append(right)
    return (
        FrameSequence(frames=lefts, role="synthesized"),
        FrameSequence(frames=rights, role="synthesized"),
    )
