"""Walk through the invariant feature pipeline on one synthetic clip.

Shows the normalization volume, the temporal reference image, the ring
partition the centroids are taken over, and the final z-scored feature, then
demonstrates the exact symmetry invariance that makes the feature useful:
flipping or rotating every frame leaves it numerically unchanged.
"""

import numpy as np

from zw3d.corpus import make_clip
from zw3d.features import DISCARD, compute_tiri, extract_feature, ring_labels
from zw3d.frameio import FrameSequence, normalize_clip

seq2d, seqdep = make_clip(seed=7, frames=64, size=96)
print(f"clip: {len(seq2d)} frames of {seq2d.width}x{seq2d.height}")

clip = normalize_clip(seq2d)
print(f"normalized clip: {len(clip.planes)} planes of 320x320 for {len(clip.picks)} slots, "
      f"volume {clip.volume.shape}, range [{clip.planes.min():.3f}, {clip.planes.max():.3f}]")

tiri = compute_tiri(clip)
print(f"temporal reference image: mean {tiri.mean():.4f}, std {tiri.std():.4f}")

labels = ring_labels()
sizes = np.bincount(labels[labels != DISCARD])
print(f"rings: {sizes.size}, pixels per ring {sizes.min()}..{sizes.max()}, "
      f"{np.count_nonzero(labels == DISCARD)} pixels outside the last ring")

feature = extract_feature(clip)
print(f"feature: {feature.values.shape[0]} values, mean {feature.values.mean():+.1e}, "
      f"std {feature.values.std(ddof=1):.6f}")

# symmetry: flip / rotate every frame and compare
for name, fn in [("horizontal flip", np.fliplr),
                 ("vertical flip", np.flipud),
                 ("90 degree rotation", np.rot90)]:
    moved = FrameSequence(frames=[fn(f).copy() for f in seq2d.frames], role="2d")
    fv = extract_feature(normalize_clip(moved))
    delta = np.abs(fv.values - feature.values).max()
    print(f"{name:>20}: max component change {delta:.2e}")
