"""Command-line front end.

Subcommands cover the three protection phases (register, query, identify)
plus the tooling around them (attack, dibr, calibrate, eval-det, eval-ber,
gen-corpus). Exit codes: 0 success / match found, 1 query finished without a
match, 2 duplicate id, 3 I/O or file-format failure, 4 invalid parameter or
shape (a usage error included), 5 unknown record id.

Defaults can come from a flat ``key=value`` config file (via --config);
explicit flags win. Recognized keys: gamma, target_pfp, t_2d, t_depth,
t_fusion, seed; any other key is refused.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .attacks import FAMILY_PARAMS, PARAMS, STOCHASTIC_FAMILIES, AttackSpec, apply_attack, attack_catalog
from .dibr import BaselineConfig, synthesize_clip
from .evaluation import ber_table, det_curve, identify_record, write_ber_csv, write_det_csv
from .features import extract_feature
from .frameio import FrameFormatError, load_clip, normalize_clip, save_clip
from .fusion import (
    GAMMA,
    MODES,
    TARGET_PFP,
    Thresholds,
    calibration_report,
    match_query,
    read_calibration_csv,
    write_calibration_csv,
)
from .registry import (
    DuplicateIdError,
    RegistrationRecord,
    Registry,
    RegistryError,
    UnknownIdError,
    encode_record,
)
from .shares import (
    binarize_feature,
    build_master_share,
    build_ownership_share,
    load_watermark,
    rearrange,
    save_watermark,
)

EXIT_OK = 0
EXIT_NO_MATCH = 1
# the exit code of each error a command reports; the first class that matches wins
EXIT_CODES = {
    DuplicateIdError: 2,
    UnknownIdError: 5,
    FrameFormatError: 3,
    RegistryError: 3,
    UnicodeDecodeError: 3,
    OSError: 3,
    ValueError: 4,
}
CONFIG_KEYS = ("gamma", "target_pfp", "t_2d", "t_depth", "t_fusion", "seed")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ValueError`` (exit 4),
    not exit with argparse's status 2, which here means a duplicate id."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def _text_lines(path) -> list[str]:
    """The stripped lines of a UTF-8 text file, less blank and ``#`` lines."""
    lines = (line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def _read_config(path: str | None) -> dict:
    if not path:
        return {}
    out = {}
    for line in _text_lines(path):
        if "=" not in line:
            raise ValueError(f"config line without '=': {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r} (known: {', '.join(CONFIG_KEYS)})")
        out[key] = value
    return out


def _setting(args, config: dict, name: str, cast, default=None):
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in config:
        return cast(config[name])
    return default


def _clip_features(clip_2d, clip_depth):
    """Load, normalize and extract both channels of a 2D+depth clip pair."""
    return (
        extract_feature(normalize_clip(load_clip(clip_2d, "2d"))),
        extract_feature(normalize_clip(load_clip(clip_depth, "depth"))),
    )


def _thresholds(args, config: dict) -> Thresholds:
    gamma = _setting(args, config, "gamma", float, GAMMA)
    values = read_calibration_csv(args.thresholds) if getattr(args, "thresholds", None) else {}
    for name in ("t_2d", "t_depth", "t_fusion"):
        v = _setting(args, config, name, float)
        if v is not None:
            values[name] = v
    missing = [n for n in ("t_2d", "t_depth", "t_fusion") if n not in values]
    if missing:
        raise ValueError(f"missing thresholds: {', '.join(missing)} "
                         "(use --thresholds CSV, flags, or a config file)")
    return Thresholds(values["t_2d"], values["t_depth"], values["t_fusion"], gamma)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_register(args, config) -> int:
    fn2d, fndep = _clip_features(args.clip_2d, args.clip_depth)
    w2d, wdep = load_watermark(args.watermark_2d), load_watermark(args.watermark_depth)
    o2d, odep = (build_ownership_share(build_master_share(rearrange(binarize_feature(fn))), w)
                 for fn, w in ((fn2d, w2d), (fndep, wdep)))
    rec = RegistrationRecord(args.id, fn2d.values, fndep.values, o2d, odep, w2d, wdep)
    payload = encode_record(rec, not args.no_store_watermarks)  # a refused record makes no file
    with Registry(args.db, "a") as db:
        count = db.register(payload)
    print(count)
    return EXIT_OK


def cmd_query(args, config) -> int:
    th = _thresholds(args, config)
    fn2d, fndep = _clip_features(args.clip_2d, args.clip_depth)
    with Registry(args.db, "r") as db:
        results = match_query(fn2d, fndep, db, th, mode=args.mode)
    writer = csv.writer(sys.stdout)
    writer.writerow(["record_id", "d_2d", "d_depth", "d_fused", "decision", "mode"])
    for r in results:
        writer.writerow([r.record_id, f"{r.d_2d:.9g}", f"{r.d_depth:.9g}",
                         f"{r.d_fused:.9g}", r.decision, r.mode])
    return EXIT_OK if results else EXIT_NO_MATCH


def cmd_identify(args, config) -> int:
    if not args.auto and not args.id:
        raise ValueError("identify needs --id or --auto")
    gamma = _setting(args, config, "gamma", float, GAMMA)
    fn2d, fndep = _clip_features(args.clip_2d, args.clip_depth)
    with Registry(args.db, "r") as db:
        if args.auto:
            th = _thresholds(args, config)
            results = match_query(fn2d, fndep, db, th, mode=args.mode)
            if not results:
                print("no match", file=sys.stderr)
                return EXIT_NO_MATCH
            record_id = results[0].record_id
        else:
            record_id = args.id
        rec = db.get_record(record_id)
    (rec2d, recdep), bers = identify_record(rec, fn2d, fndep, gamma)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_watermark(out_dir / "recovered_2d.pbm", rec2d)
    save_watermark(out_dir / "recovered_depth.pbm", recdep)
    writer = csv.writer(sys.stdout)
    writer.writerow(["record_id", "ber_2d", "ber_depth", "ber_fused"])
    writer.writerow([record_id, *(("",) * 3 if bers is None else (f"{b:.6f}" for b in bers))])
    return EXIT_OK


def _attack_spec_from_args(args, config) -> AttackSpec:
    key = FAMILY_PARAMS[args.family].param
    raw = getattr(args, key)
    if raw is None:
        raise ValueError(f"attack {args.family} needs --{key}")
    seed = _setting(args, config, "seed", int)
    return AttackSpec(family=args.family, params={key: raw}, seed=seed)


def cmd_attack(args, config) -> int:
    spec = _attack_spec_from_args(args, config)
    seq = load_clip(args.input, args.role)
    out = apply_attack(seq, spec)
    save_clip(args.output, out)
    print(f"{spec.name}: {len(seq)} -> {len(out)} frames")
    return EXIT_OK


def cmd_dibr(args, config) -> int:
    tags = {f"{round(baseline * 100):02d}": baseline for baseline in args.baseline}  # left_/right_<tag>
    if len(tags) < len(args.baseline):
        raise ValueError(f"baselines {args.baseline} share a view tag (left_/right_ + percent of width)")
    seq2d = load_clip(args.clip_2d, "2d")
    seqdep = load_clip(args.clip_depth, "depth")
    out_dir = Path(args.out_dir)
    for tag, baseline in tags.items():
        cfg = BaselineConfig(baseline_fraction=baseline, convergence_depth=args.convergence)
        left, right = synthesize_clip(seq2d, seqdep, cfg)
        save_clip(out_dir / f"left_{tag}", left)
        save_clip(out_dir / f"right_{tag}", right)
        print(f"baseline {baseline:g}: wrote left_{tag}, right_{tag}")
    return EXIT_OK


def cmd_calibrate(args, config) -> int:
    target = _setting(args, config, "target_pfp", float, TARGET_PFP)
    gamma = _setting(args, config, "gamma", float, GAMMA)
    with Registry(args.db, "r") as db:
        th, rows = calibration_report(db, target_pfp=target, gamma=gamma)
    write_calibration_csv(args.output, rows)
    print(f"t_2d={th.t_2d:.9g} t_depth={th.t_depth:.9g} t_fusion={th.t_fusion:.9g}")
    return EXIT_OK


def cmd_eval_det(args, config) -> int:
    genuine, impostor = ([float(s) for s in _text_lines(p)] for p in (args.genuine, args.impostor))
    points = det_curve(genuine, impostor)
    write_det_csv(args.output, points)
    print(f"{len(points)} DET points -> {args.output}")
    return EXIT_OK


def _scan_attacked_corpus(corpus_dir: Path):
    """Yield (clip_id, attack, fn_2d, fn_depth) from a corpus directory tree.

    Expected layout: <corpus>/<clip_id>/<attack>/2d/frame_*.p?m plus a
    matching depth/ directory.
    """
    for clip_dir in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        for attack_dir in sorted(p for p in clip_dir.iterdir() if p.is_dir()):
            two_d = attack_dir / "2d"
            depth = attack_dir / "depth"
            if not (two_d.is_dir() and depth.is_dir()):
                continue
            yield (clip_dir.name, attack_dir.name, *_clip_features(two_d, depth))


def cmd_eval_ber(args, config) -> int:
    gamma = _setting(args, config, "gamma", float, GAMMA)
    order = [spec.name for spec in attack_catalog()]
    with Registry(args.db, "r") as db:
        rows = ber_table(db, _scan_attacked_corpus(Path(args.corpus_dir)),
                         gamma=gamma, attack_order=order)
    write_ber_csv(args.output, rows)
    print(f"{len(rows)} BER rows -> {args.output}")
    return EXIT_OK


def cmd_gen_corpus(args, config) -> int:
    seed = _setting(args, config, "seed", int, 0)
    ids = corpus_mod.generate_corpus(
        args.output, clips=args.clips, frames=args.frames,
        size=args.size, seed=seed, color=args.color,
    )
    print(f"wrote {len(ids)} clips to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zw3d", description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    clips = argparse.ArgumentParser(add_help=False)
    clips.add_argument("--clip-2d", required=True)
    clips.add_argument("--clip-depth", required=True)

    p = sub.add_parser("register", parents=[clips], help="extract features, build shares, append to the registry")
    p.add_argument("--db", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--watermark-2d", required=True)
    p.add_argument("--watermark-depth", required=True)
    p.add_argument("--no-store-watermarks", action="store_true",
                   help="zero the stored watermark fields (disables BER evaluation)")
    p.set_defaults(fn=cmd_register)

    retrieval = argparse.ArgumentParser(add_help=False, parents=[clips])
    retrieval.add_argument("--db", required=True)
    retrieval.add_argument("--mode", choices=MODES, default="independent")
    retrieval.add_argument("--thresholds", help="CSV written by calibrate")
    retrieval.add_argument("--t-2d", dest="t_2d", type=float)
    retrieval.add_argument("--t-depth", dest="t_depth", type=float)
    retrieval.add_argument("--t-fusion", dest="t_fusion", type=float)
    retrieval.add_argument("--gamma", type=float)

    p = sub.add_parser("query", parents=[retrieval], help="similarity retrieval against the registry")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("identify", parents=[retrieval], help="recover watermarks for a matched record")
    p.add_argument("--id", help="record id (or use --auto)")
    p.add_argument("--auto", action="store_true", help="chain a query and identify the best match")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_identify)

    p = sub.add_parser("attack", help="apply one attack instance to a clip directory")
    p.add_argument("--family", required=True, choices=sorted(FAMILY_PARAMS))
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--role", choices=("2d", "depth", "synthesized"), default="2d")
    for key, (doc, values) in PARAMS.items():
        kind, families = type(next(iter(values))), [f for f, fam in FAMILY_PARAMS.items() if fam.param == key]
        p.add_argument(f"--{key}", type=kind, choices=tuple(values) if kind is str else None,
                       help=f"{'/'.join(families)} {doc}: {', '.join(map(str, values))}")
    p.add_argument("--seed", type=int, help=f"seed for {'/'.join(STOCHASTIC_FAMILIES)}")
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("dibr", parents=[clips], help="synthesize left/right views at one or more baselines")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--baseline", type=float, action="append", required=True,
                   help="fraction of frame width; repeatable")
    p.add_argument("--convergence", type=float, default=0.5)
    p.set_defaults(fn=cmd_dibr)

    p = sub.add_parser("calibrate", help="derive thresholds from registered features")
    p.add_argument("--db", required=True)
    p.add_argument("--target-pfp", dest="target_pfp", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--out", dest="output", required=True)
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("eval-det", help="DET curve from genuine/impostor score files")
    p.add_argument("--genuine", required=True, help="text file, one score per line")
    p.add_argument("--impostor", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.set_defaults(fn=cmd_eval_det)

    p = sub.add_parser("eval-ber", help="mean recovery BER per attack over an attacked corpus")
    p.add_argument("--db", required=True)
    p.add_argument("--corpus-dir", required=True,
                   help="layout: <clip_id>/<attack>/{2d,depth}/frame_*.p?m")
    p.add_argument("--gamma", type=float)
    p.add_argument("--out", dest="output", required=True)
    p.set_defaults(fn=cmd_eval_ber)

    p = sub.add_parser("gen-corpus", help="generate a synthetic desk-scale test corpus")
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--clips", type=int, default=20)
    p.add_argument("--frames", type=int, default=64)
    p.add_argument("--size", type=int, default=96)
    p.add_argument("--seed", type=int)
    p.add_argument("--color", action="store_true")
    p.set_defaults(fn=cmd_gen_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, _read_config(args.config))
    except tuple(EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(e, cls))


if __name__ == "__main__":
    raise SystemExit(main())
