"""Zero-watermarking, retrieval, and robustness tooling for DIBR 3D video clips.

The pipeline in one breath: clips (2D frames + depth maps) are normalized to
a fixed luminance volume, condensed into ring-partition deviation features
that survive signal, geometric, and view-synthesis distortions, bound to
copyright watermarks through (2,2) visual secret sharing, and stored in a
registry that supports similarity retrieval with attention-based score
fusion, watermark recovery, and DET/BER evaluation.
"""

from .frameio import (
    FrameFormatError,
    FrameSequence,
    NormalizedClip,
    load_clip,
    normalize_clip,
    save_clip,
    to_luminance,
)
from .features import (
    DEFAULT_PARAMS,
    FEATURE_DIM,
    FeatureParams,
    FeatureVector,
    extract_feature,
)
from .shares import (
    ber,
    binarize_feature,
    build_master_share,
    build_ownership_share,
    load_watermark,
    recover_from_feature,
    recover_watermark,
    rearrange,
    save_share,
    save_watermark,
    stack_shares,
)
from .fusion import (
    MatchResult,
    Thresholds,
    calibration_report,
    feature_distance,
    fuse_scores,
    match_query,
)
from .registry import (
    DuplicateIdError,
    RegistrationRecord,
    Registry,
    RegistryCorruptError,
    RegistryError,
    UnknownIdError,
)
from .dibr import BaselineConfig, synthesize_clip, synthesize_views
from .attacks import AttackSpec, apply_attack, attack_catalog
from .evaluation import DetPoint, ber_table, compute_rates, det_curve
from .corpus import generate_corpus, make_clip, make_watermark

__version__ = "0.1.0"
