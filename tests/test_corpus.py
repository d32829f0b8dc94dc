import hashlib

import pytest

from zw3d.corpus import make_clip

# SHA-256 of the frame bytes of both channels (2D frames, then depth frames)
# of make_clip(seed, frames, size, color). Any change to the generator that
# moves a single pixel level changes these, and with them every figure
# measured on a corpus.
GOLDEN = [
    (1, 64, 96, False, "bbc8708bd1783b5a3d95c957db6e305786fa2b6ea33f28a06f0d46542cb2bf46"),
    (2, 64, 96, False, "0afdb7d3bdd34dec46160e276622054849f57c98f6c279b752fca076575133a8"),
    (3, 120, 128, True, "9af9f63b154c7c33d0e779c03e277ac2e2a41318e7bb5ceea1142b56a90a7103"),
    (4, 120, 128, True, "8779d8379cc130432401e6f292f308ca365b4526bdfea88dd970e8fc1e9c44bb"),
]


@pytest.mark.parametrize("seed, frames, size, color, digest", GOLDEN,
                         ids=[f"{'colour' if g[3] else 'gray'}-seed{g[0]}" for g in GOLDEN])
def test_make_clip_frames_are_byte_stable(seed, frames, size, color, digest):
    seq2d, seqdep = make_clip(seed, frames=frames, size=size, color=color)
    assert len(seq2d) == len(seqdep) == frames
    assert seq2d.frames[0].shape == ((size, size, 3) if color else (size, size))
    assert seqdep.frames[0].shape == (size, size)
    h = hashlib.sha256()
    for seq in (seq2d, seqdep):
        for frame in seq.frames:
            h.update(frame.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("arg", ["frames", "size"])
def test_make_clip_refuses_sizes_below_one(arg):
    with pytest.raises(ValueError, match=f"{arg} must be at least 1"):
        make_clip(0, **{arg: 0})
