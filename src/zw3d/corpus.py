"""Procedural desk-scale test corpus.

Each synthetic clip pairs a textured 2D sequence with a smooth depth
sequence, both seeded and bit-reproducible. The 2D channel mixes drifting
sinusoidal gratings with wandering Gaussian blobs (structured texture at
several scales, mild temporal motion); the depth channel is a slowly moving
composition of large blobs over a tilted ramp, quantized to gray levels, the
usual region-wise smooth look of calibrated depth maps.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .frameio import FrameSequence, save_clip, to_u8
from .shares import WATERMARK_SIDE, save_watermark


def _grid(size: int):
    """The pixel grid on [0, 1] as separable axes, y a (size, 1) column and x
    a (1, size) row: against time as (F, 1, 1), an offset like ``xx - x(t)``
    stays (F, 1, size) until a product spreads it over the whole volume."""
    ax = np.linspace(0.0, 1.0, size)
    return ax[:, None], ax[None, :]


def _texture_volume(rng: np.random.Generator, frames: int, size: int) -> np.ndarray:
    yy, xx = _grid(size)
    t = np.arange(frames, dtype=np.float64)[:, None, None]
    vol = np.zeros((frames, size, size), dtype=np.float64)
    buf = np.empty_like(vol)

    for _ in range(5):
        theta = rng.uniform(0, np.pi)
        cycles = rng.uniform(1.5, 5.0)
        phase = rng.uniform(0, 2 * np.pi)
        drift = rng.uniform(-0.12, 0.12)
        amp = rng.uniform(0.5, 1.0)
        carrier = cycles * 2 * np.pi * (np.cos(theta) * xx + np.sin(theta) * yy)
        np.add(carrier + phase, drift * t, out=buf)
        np.sin(buf, out=buf)
        buf *= amp
        vol += buf

    for _ in range(3):
        cx, cy = rng.uniform(0.2, 0.8, size=2)
        radius = rng.uniform(0.08, 0.25)
        vx, vy = rng.uniform(-0.002, 0.002, size=2)
        amp = rng.uniform(-1.2, 1.2)
        dx = xx - (cx + vx * t)
        dy = yy - (cy + vy * t)
        np.add(dx * dx, dy * dy, out=buf)
        np.negative(buf, out=buf)
        buf /= 2 * radius * radius
        np.exp(buf, out=buf)
        buf *= amp
        vol += buf

    return vol


def _depth_volume(rng: np.random.Generator, frames: int, size: int) -> np.ndarray:
    """Region-wise constant depth: elliptical objects over a tilted backdrop.

    Real calibrated depth maps are smooth inside objects with crisp
    silhouettes; the edges are what carries the depth channel's identity.
    Objects drift slowly and nearer ones paint over farther ones.
    """
    yy, xx = _grid(size)
    t = np.arange(frames, dtype=np.float64)[:, None, None]
    gx, gy = rng.uniform(-0.25, 0.25, size=2)
    backdrop = 0.35 + gx * (xx - 0.5) + gy * (yy - 0.5)
    vol = np.broadcast_to(backdrop, (frames, size, size)).copy()
    u, v = np.empty_like(vol), np.empty_like(vol)

    objects = []
    for _ in range(int(rng.integers(3, 6))):
        objects.append(dict(
            center=rng.uniform(0.15, 0.85, size=2),
            axes=rng.uniform(0.07, 0.28, size=2),
            theta=rng.uniform(0, np.pi),
            depth=rng.uniform(0.15, 0.95),
            velocity=rng.uniform(-0.0025, 0.0025, size=2),
        ))
    # painter's order: nearer objects (larger depth value) occlude farther
    for obj in sorted(objects, key=lambda o: o["depth"]):
        cx, cy = obj["center"]
        vx, vy = obj["velocity"]
        ct, st = np.cos(obj["theta"]), np.sin(obj["theta"])
        dx = xx - (cx + vx * t)
        dy = yy - (cy + vy * t)
        np.add(ct * dx, st * dy, out=u)
        u /= obj["axes"][0]
        np.add(-st * dx, ct * dy, out=v)
        v /= obj["axes"][1]
        u *= u
        v *= v
        u += v
        np.copyto(vol, obj["depth"], where=u <= 1.0)

    return vol


def _to_uint8(vol: np.ndarray, lo: float, hi: float) -> np.ndarray:
    vmin, vmax = vol.min(), vol.max()
    if vmax - vmin < 1e-12:
        scaled = np.full_like(vol, (lo + hi) / 2.0)
    else:
        scaled = lo + (vol - vmin) / (vmax - vmin) * (hi - lo)
    return to_u8(scaled)


def _colorize(gray: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Give a gray frame stack a mild per-channel tint, keeping structure."""
    gains = rng.uniform(0.75, 1.0, size=3)
    offsets = rng.uniform(0.0, 30.0, size=3)
    return np.stack([to_u8(gray.astype(np.float64) * g + o) for g, o in zip(gains, offsets)], axis=-1)


def _at_least_one(**counts: int) -> None:
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def make_clip(seed: int, frames: int = 64, size: int = 96, color: bool = False):
    """One synthetic (2d, depth) FrameSequence pair."""
    _at_least_one(frames=frames, size=size)
    rng = np.random.default_rng(seed)
    tex = _to_uint8(_texture_volume(rng, frames, size), 25.0, 230.0)
    dep = to_u8(_depth_volume(rng, frames, size) * 255)
    if color:
        tex = _colorize(tex, rng)
    frames_2d = [tex[k] for k in range(frames)]
    frames_dep = [dep[k] for k in range(frames)]
    return (
        FrameSequence(frames=frames_2d, role="2d"),
        FrameSequence(frames=frames_dep, role="depth"),
    )


def make_watermark(seed: int) -> np.ndarray:
    """Seeded random watermark bits, ``WATERMARK_SIDE`` square."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(WATERMARK_SIDE, WATERMARK_SIDE), dtype=np.uint8)


def generate_corpus(
    out_dir,
    clips: int = 20,
    frames: int = 64,
    size: int = 96,
    seed: int = 0,
    color: bool = False,
) -> list[str]:
    """Write a corpus of clip directories; returns the clip ids.

    Layout per clip: ``<out>/<id>/2d/frame_*.p?m``, ``<out>/<id>/depth/...``,
    plus per-clip ``watermark_2d.pbm`` and ``watermark_depth.pbm``.
    """
    _at_least_one(clips=clips, frames=frames, size=size)
    out_dir = Path(out_dir)
    ids = []
    for c in range(clips):
        clip_id = f"clip{c:03d}"
        seq2d, seqdep = make_clip(seed * 100003 + c, frames=frames, size=size, color=color)
        base = out_dir / clip_id
        save_clip(base / "2d", seq2d)
        save_clip(base / "depth", seqdep)
        save_watermark(base / "watermark_2d.pbm", make_watermark(seed * 100003 + c + 50021))
        save_watermark(base / "watermark_depth.pbm", make_watermark(seed * 100003 + c + 70003))
        ids.append(clip_id)
    return ids
