import contextlib
import csv
import io
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from zw3d.cli import CONFIG_KEYS, main
from zw3d.frameio import load_clip, write_frame, write_pbm
from zw3d.fusion import MODES
from zw3d.registry import RegistrationRecord, Registry
from zw3d.shares import build_master_share, build_ownership_share


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    code, out, _ = run_cli("gen-corpus", "--out", root / "clips", "--clips", 3,
                           "--frames", 12, "--size", 48, "--seed", 5)
    assert code == 0
    return root / "clips"


@pytest.fixture(scope="module")
def registered(corpus, tmp_path_factory):
    db = tmp_path_factory.mktemp("cli_db") / "reg.zw3d"
    for i in range(3):
        clip = corpus / f"clip{i:03d}"
        code, out, err = run_cli(
            "register", "--db", db, "--id", f"clip{i:03d}",
            "--clip-2d", clip / "2d", "--clip-depth", clip / "depth",
            "--watermark-2d", clip / "watermark_2d.pbm",
            "--watermark-depth", clip / "watermark_depth.pbm",
        )
        assert code == 0, err
        assert out.strip() == str(i + 1)
    return db


@pytest.fixture(scope="module")
def thresholds_csv(registered, tmp_path_factory):
    out_csv = tmp_path_factory.mktemp("cli_cal") / "thresholds.csv"
    code, _, err = run_cli("calibrate", "--db", registered, "--target-pfp", 0.01,
                           "--out", out_csv)
    assert code == 0, err
    return out_csv


def test_gen_corpus_layout_and_determinism(tmp_path):
    code, _, _ = run_cli("gen-corpus", "--out", tmp_path / "a", "--clips", 1,
                         "--frames", 6, "--size", 32, "--seed", 9)
    assert code == 0
    code, _, _ = run_cli("gen-corpus", "--out", tmp_path / "b", "--clips", 1,
                         "--frames", 6, "--size", 32, "--seed", 9)
    assert code == 0
    a = (tmp_path / "a/clip000/2d/frame_000003.pgm").read_bytes()
    b = (tmp_path / "b/clip000/2d/frame_000003.pgm").read_bytes()
    assert a == b
    assert (tmp_path / "a/clip000/depth/frame_000000.pgm").exists()
    assert (tmp_path / "a/clip000/watermark_2d.pbm").exists()


@pytest.mark.parametrize("flag, value", [("--clips", -1), ("--clips", 0), ("--frames", 0), ("--size", 0)])
def test_gen_corpus_sizes_below_one_exit_4(tmp_path, flag, value):
    code, out, err = run_cli("gen-corpus", "--out", tmp_path / "c", flag, value)
    assert code == 4 and f"{flag[2:]} must be at least 1" in err, (out, err)
    assert not (tmp_path / "c").exists()


def test_register_duplicate_exit_2(corpus, registered):
    clip = corpus / "clip000"
    code, _, err = run_cli(
        "register", "--db", registered, "--id", "clip000",
        "--clip-2d", clip / "2d", "--clip-depth", clip / "depth",
        "--watermark-2d", clip / "watermark_2d.pbm",
        "--watermark-depth", clip / "watermark_depth.pbm",
    )
    assert code == 2
    assert "already registered" in err


def test_register_bad_watermark_exit_4(corpus, tmp_path):
    clip = corpus / "clip000"
    bad = tmp_path / "bad.pbm"
    write_pbm(bad, np.zeros((10, 10), dtype=np.uint8))
    code, _, err = run_cli(
        "register", "--db", tmp_path / "x.zw3d", "--id", "z",
        "--clip-2d", clip / "2d", "--clip-depth", clip / "depth",
        "--watermark-2d", bad, "--watermark-depth", bad,
    )
    assert code == 4


def test_register_missing_dir_exit_3(corpus, tmp_path):
    clip = corpus / "clip000"
    code, _, _ = run_cli(
        "register", "--db", tmp_path / "x.zw3d", "--id", "z",
        "--clip-2d", tmp_path / "missing", "--clip-depth", clip / "depth",
        "--watermark-2d", clip / "watermark_2d.pbm",
        "--watermark-depth", clip / "watermark_depth.pbm",
    )
    assert code == 3


def test_query_zero_size_frames_exit_3(corpus, registered, tmp_path):
    bad = tmp_path / "bad"
    bad.mkdir()
    for k in range(2):
        (bad / f"frame_{k:06d}.pgm").write_bytes(b"P5\n0 4\n255\n")
    code, _, err = run_cli(
        "query", "--db", registered, "--clip-2d", bad,
        "--clip-depth", corpus / "clip000" / "depth",
        "--t-2d", 0.1, "--t-depth", 0.1, "--t-fusion", 0.1,
    )
    assert code == 3
    assert "zero size" in err


def test_query_two_files_for_one_frame_exit_3(corpus, registered, tmp_path):
    bad = tmp_path / "bad"
    shutil.copytree(corpus / "clip000" / "2d", bad)
    write_frame(bad / "frame_000000.ppm", np.zeros((48, 48, 3), dtype=np.uint8))
    code, _, err = run_cli(
        "query", "--db", registered, "--clip-2d", bad,
        "--clip-depth", corpus / "clip000" / "depth",
        "--t-2d", 0.1, "--t-depth", 0.1, "--t-fusion", 0.1,
    )
    assert code == 3
    assert "frame_000000.pgm and frame_000000.ppm" in err


def test_magic_without_whitespace_exit_3(corpus, registered, tmp_path):
    clip = corpus / "clip000"
    bad_pbm = tmp_path / "w.pbm"
    bad_pbm.write_bytes(b"P46\n40 40\n" + bytes(200))
    code, _, err = run_cli(
        "register", "--db", tmp_path / "x.zw3d", "--id", "z",
        "--clip-2d", clip / "2d", "--clip-depth", clip / "depth",
        "--watermark-2d", bad_pbm, "--watermark-depth", bad_pbm,
    )
    assert code == 3 and "whitespace after magic" in err, err
    bad_clip = tmp_path / "clip"
    bad_clip.mkdir()
    (bad_clip / "frame_000000.pgm").write_bytes(b"P56 8\n255\n" + bytes(48))
    code, _, err = run_cli(
        "query", "--db", registered, "--clip-2d", bad_clip, "--clip-depth", clip / "depth",
        "--t-2d", 0.1, "--t-depth", 0.1, "--t-fusion", 0.1,
    )
    assert code == 3 and "whitespace after magic" in err, err


@pytest.mark.parametrize("damage", ["truncate", "bad_id_byte"])
def test_calibrate_corrupt_registry_exit_3(registered, tmp_path, damage):
    raw = bytearray(registered.read_bytes())
    if damage == "truncate":
        raw = raw[:-100]
    else:
        raw[16] = 0xFF  # first byte of the first record's id
    db = tmp_path / "damaged.zw3d"
    db.write_bytes(bytes(raw))
    code, _, err = run_cli("calibrate", "--db", db, "--out", tmp_path / "t.csv")
    assert code == 3, err


def test_register_onto_truncated_registry_exit_3(corpus, registered, tmp_path):
    db = tmp_path / "truncated.zw3d"
    db.write_bytes(registered.read_bytes()[:-100])
    before = db.read_bytes()
    clip = corpus / "clip000"
    code, _, err = run_cli(
        "register", "--db", db, "--id", "new",
        "--clip-2d", clip / "2d", "--clip-depth", clip / "depth",
        "--watermark-2d", clip / "watermark_2d.pbm",
        "--watermark-depth", clip / "watermark_depth.pbm",
    )
    assert code == 3, err
    assert "past the end" in err
    assert db.read_bytes() == before


def test_calibrate_report(thresholds_csv):
    with open(thresholds_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["threshold"] for r in rows] == ["t_2d", "t_depth", "t_fusion"]
    assert all(float(r["value"]) > 0 for r in rows)


def test_query_self_match(corpus, registered, thresholds_csv):
    clip = corpus / "clip001"
    code, out, _ = run_cli(
        "query", "--db", registered, "--clip-2d", clip / "2d",
        "--clip-depth", clip / "depth", "--mode", "fused",
        "--thresholds", thresholds_csv,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["record_id"] == "clip001"
    assert float(rows[0]["d_fused"]) == 0.0
    assert rows[0]["decision"] == "match-fused"


def test_query_unrelated_clip_no_match(registered, thresholds_csv, tmp_path):
    run_cli("gen-corpus", "--out", tmp_path / "other", "--clips", 1,
            "--frames", 12, "--size", 48, "--seed", 777)
    clip = tmp_path / "other/clip000"
    code, out, _ = run_cli(
        "query", "--db", registered, "--clip-2d", clip / "2d",
        "--clip-depth", clip / "depth", "--mode", "independent",
        "--thresholds", thresholds_csv,
    )
    assert code == 1
    assert len(out.strip().splitlines()) == 1  # header only


def test_query_thresholds_from_config(corpus, registered, tmp_path):
    cfg = tmp_path / "zw3d.conf"
    cfg.write_text("t_2d = 0.5\nt_depth = 0.5\nt_fusion = 0.5\ngamma = 0.1\n")
    clip = corpus / "clip002"
    code, out, _ = run_cli(
        "--config", cfg, "query", "--db", registered, "--clip-2d", clip / "2d",
        "--clip-depth", clip / "depth",
    )
    assert code == 0
    assert "clip002" in out


def test_query_missing_thresholds_exit_4(corpus, registered):
    clip = corpus / "clip000"
    code, _, err = run_cli(
        "query", "--db", registered, "--clip-2d", clip / "2d",
        "--clip-depth", clip / "depth",
    )
    assert code == 4
    assert "thresholds" in err


def test_query_thresholds_csv_without_column_exit_4(corpus, registered, tmp_path):
    clip = corpus / "clip000"
    bad = tmp_path / "bad.csv"
    bad.write_text("name,value\nt_2d,0.5\n")
    code, _, err = run_cli("query", "--db", registered, "--clip-2d", clip / "2d",
                           "--clip-depth", clip / "depth", "--thresholds", bad)
    assert code == 4
    assert "'threshold' column" in err


@pytest.mark.parametrize("flag", ["--t-2d", "--t-depth", "--t-fusion", "--gamma"])
def test_query_nan_threshold_or_gamma_exit_4(corpus, registered, flag):
    clip = corpus / "clip000"
    values = {"--t-2d": "0.5", "--t-depth": "0.5", "--t-fusion": "0.5", "--gamma": "0.1", flag: "nan"}
    code, _, err = run_cli("query", "--db", registered, "--clip-2d", clip / "2d",
                           "--clip-depth", clip / "depth", *(x for kv in values.items() for x in kv))
    assert code == 4
    assert "NaN" in err


@pytest.fixture(scope="module")
def nan_registry(tmp_path_factory):
    """Three records r0..r2; r1's stored 2D feature holds one NaN."""
    db = tmp_path_factory.mktemp("cli_nan") / "nan.zw3d"
    rng = np.random.default_rng(17)
    with Registry(db, "a") as reg:
        for i in range(3):
            f2d, fdep = rng.normal(size=1600), rng.normal(size=1600)
            if i == 1:
                f2d[5] = np.nan
            w = rng.integers(0, 2, size=(40, 40), dtype=np.uint8)
            o = build_ownership_share(build_master_share(rng.integers(0, 2, size=(40, 40), dtype=np.uint8)), w)
            reg.register(RegistrationRecord(f"r{i}", f2d, fdep, o, o, w, w))
    return db


@pytest.mark.parametrize("mode", MODES)
def test_query_nan_record_exit_4(corpus, nan_registry, mode):
    clip = corpus / "clip000"
    code, out, err = run_cli("query", "--db", nan_registry, "--clip-2d", clip / "2d",
                             "--clip-depth", clip / "depth", "--mode", mode,
                             "--t-2d", "inf", "--t-depth", "inf", "--t-fusion", "inf")
    assert code == 4
    assert "'r1' is NaN" in err and out == ""


def test_calibrate_nan_record_exit_4(nan_registry, tmp_path):
    code, _, err = run_cli("calibrate", "--db", nan_registry, "--out", tmp_path / "t.csv")
    assert code == 4
    assert "NaN" in err


def test_eval_det_nan_score_exit_4(tmp_path):
    (tmp_path / "gen.txt").write_text("0.1\nnan\n0.2\n")
    (tmp_path / "imp.txt").write_text("0.8\n")
    code, _, err = run_cli("eval-det", "--genuine", tmp_path / "gen.txt",
                           "--impostor", tmp_path / "imp.txt", "--out", tmp_path / "det.csv")
    assert code == 4
    assert "NaN" in err


@pytest.mark.parametrize("which", ["config", "scores", "thresholds"])
def test_non_utf8_text_input_exit_3(corpus, registered, tmp_path, which):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("t_2d = 0.5 # \u00e9t\u00e9\n".encode("latin-1"))
    clip = corpus / "clip000"
    argv = {
        "config": ["--config", bad, "gen-corpus", "--out", tmp_path / "c"],
        "scores": ["eval-det", "--genuine", bad, "--impostor", bad, "--out", tmp_path / "d.csv"],
        "thresholds": ["query", "--db", registered, "--clip-2d", clip / "2d",
                       "--clip-depth", clip / "depth", "--thresholds", bad],
    }[which]
    code, _, err = run_cli(*argv)
    assert code == 3
    assert "utf-8" in err


@pytest.mark.parametrize("argv", [
    ["query", "--db", "r.zw3d", "--clip-2d", "a", "--clip-depth", "b", "--mode", "bogus"],
    ["calibrate", "--out", "t.csv"],
], ids=["bad-mode", "missing-db"])
def test_usage_error_exit_4(argv, capsys):
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("usage: zw3d ") and f"error: zw3d {argv[0]}: " in err
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0


def test_unknown_config_key_exit_4(tmp_path):
    cfg = tmp_path / "zw3d.conf"
    cfg.write_text("gama = 0.5\n")
    code, _, err = run_cli("--config", cfg, "gen-corpus", "--out", tmp_path / "c")
    assert code == 4
    assert "'gama'" in err
    assert not (tmp_path / "c").exists()


# -- random text inputs: documented exit codes only, never a traceback ------------

_NUMBER = st.floats(0, 1) | st.floats(min_value=0) | st.floats()
_CONFIG = st.dictionaries(st.sampled_from(CONFIG_KEYS), _NUMBER).map(
    lambda kv: "".join(f"{k} = {v!r}\n" for k, v in kv.items()))
_TABLE = st.fixed_dictionaries({k: _NUMBER for k in ("t_2d", "t_depth", "t_fusion")}).map(
    lambda kv: "threshold,value\n" + "".join(f"{k},{v!r}\n" for k, v in kv.items()))
_SCORES = st.lists(_NUMBER, max_size=5).map(lambda xs: "".join(f"{x!r}\n" for x in xs))
_FLAGS = {"calibrate": ["--gamma", "--target-pfp"],
          "query": ["--gamma", "--t-2d", "--t-depth", "--t-fusion", "--mode"],
          "eval-det": []}


def _damaged(data, raw: bytes, label: str) -> bytes:
    """``raw`` with up to two bytes overwritten and maybe cut short."""
    raw = bytearray(raw)
    edits = st.lists(st.tuples(st.integers(0, max(len(raw) - 1, 0)), st.integers(0, 255)),
                     max_size=2 if raw else 0)
    for pos, byte in data.draw(edits, label=f"{label} edits"):
        raw[pos] = byte
    return bytes(raw[: data.draw(st.none() | st.integers(0, len(raw)), label=f"{label} cut")])


@settings(derandomize=True, deadline=None, max_examples=150, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(sorted(_FLAGS)), config=_CONFIG, table=_TABLE,
       genuine=_SCORES, impostor=_SCORES)
def test_random_text_inputs_exit_with_documented_codes(corpus, registered, tmp_path, data, command,
                                                       config, table, genuine, impostor):
    damaged = data.draw(st.sampled_from([None, "cfg", "table.csv", "gen", "imp"]), label="damaged")
    for name, text in (("cfg", config), ("table.csv", table), ("gen", genuine), ("imp", impostor)):
        (tmp_path / name).write_bytes(_damaged(data, text.encode(), name) if name == damaged else text.encode())
    names = data.draw(st.permutations(_FLAGS[command]), label="flags")[: data.draw(st.integers(0, 2))]
    flags = [x for name in names for x in (name, data.draw(st.sampled_from(MODES) if name == "--mode"
                                                           else _NUMBER.map(repr), label=name))]
    clip = corpus / "clip000"
    argv = {
        "calibrate": ["calibrate", "--db", registered, "--out", tmp_path / "out.csv"],
        "query": ["query", "--db", registered, "--clip-2d", clip / "2d", "--clip-depth", clip / "depth",
                  *data.draw(st.sampled_from([["--thresholds", tmp_path / "table.csv"], []]), label="table")],
        "eval-det": ["eval-det", "--genuine", tmp_path / "gen", "--impostor", tmp_path / "imp",
                     "--out", tmp_path / "out.csv"],
    }[command]
    code, _, err = run_cli("--config", tmp_path / "cfg", *argv, *flags)
    event(f"{command} exit {code}")
    assert code in (0, 1, 3, 4), err
    assert (code >= 3) == ("error: " in err)


# -- random clip trees and watermark PBMs: documented exit codes only ------------

# (operation, channel, frame index, byte position or length, byte value); frame
# indices 12 and 13 lie past the corpus's 12 frames (an extra frame, or a gap)
_CLIP_EDITS = st.lists(st.tuples(st.sampled_from(["delete", "edit", "cut", "replace", "rmdir"]),
                                 st.sampled_from(["2d", "depth"]), st.integers(0, 13),
                                 st.integers(0, 1 << 13), st.integers(0, 255)), max_size=2)
_REPLACEMENTS = ((48, 48), (48, 48, 3), (8, 5), (1, 1))


def _damage_clip(clip_dir: Path, edits) -> None:
    for op, channel, k, pos, byte in edits:
        folder, path = clip_dir / channel, clip_dir / channel / f"frame_{k:06d}.pgm"
        if not folder.is_dir():
            continue
        if op == "rmdir":
            shutil.rmtree(folder)
        elif op == "replace":
            write_frame(path, np.full(_REPLACEMENTS[pos % len(_REPLACEMENTS)], byte, dtype=np.uint8))
        elif not path.exists():
            continue
        elif op == "delete":
            path.unlink()
        elif op == "edit":
            raw = bytearray(path.read_bytes())
            raw[pos % len(raw)] = byte
            path.write_bytes(bytes(raw))
        else:
            path.write_bytes(path.read_bytes()[: pos % (path.stat().st_size + 1)])


def _watermark_pbm(data, source: Path, target: Path, label: str) -> None:
    """The corpus watermark or a random bitmap of random size, maybe damaged."""
    shape = data.draw(st.none() | st.tuples(st.integers(1, 48), st.integers(1, 48)), label=f"{label} size")
    if shape is None:
        shutil.copyfile(source, target)
    else:
        write_pbm(target, np.random.default_rng(shape[0] * 64 + shape[1]).integers(0, 2, size=shape))
    if data.draw(st.booleans(), label=f"{label} damaged"):
        target.write_bytes(_damaged(data, target.read_bytes(), label))


@settings(derandomize=True, deadline=None, max_examples=100, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(["register", "identify", "eval-ber"]),
       source=st.integers(0, 2), edits=_CLIP_EDITS)
def test_random_clip_trees_and_watermarks_exit_with_documented_codes(corpus, registered, tmp_path, data,
                                                                     command, source, edits):
    shutil.rmtree(tmp_path / "w", ignore_errors=True)
    clip_id = f"clip{source:03d}"
    # eval-ber reads <corpus>/<clip id>/<attack>/{2d,depth}; the others read the clip itself
    clip = tmp_path / "w" / "tree" / clip_id / "attacked"
    for channel in ("2d", "depth"):
        shutil.copytree(corpus / clip_id / channel, clip / channel)
    _damage_clip(clip, edits)
    times = 1
    if command == "register":
        for channel in ("2d", "depth"):
            _watermark_pbm(data, corpus / clip_id / f"watermark_{channel}.pbm",
                           tmp_path / "w" / f"{channel}.pbm", f"watermark {channel}")
        argv = ["register", "--db", tmp_path / "w" / "reg.zw3d", "--id", clip_id,
                "--clip-2d", clip / "2d", "--clip-depth", clip / "depth",
                "--watermark-2d", tmp_path / "w" / "2d.pbm", "--watermark-depth", tmp_path / "w" / "depth.pbm"]
        times = data.draw(st.integers(1, 2), label="registrations")  # the second one is a duplicate
    elif command == "identify":
        # --auto at thresholds 1 matches a clip like the source, at 0 nothing (exit 1); with none it exits 4
        pick = data.draw(st.sampled_from([["--id", clip_id], ["--auto"]]), label="pick")
        if pick == ["--auto"] and data.draw(st.booleans(), label="thresholds"):
            t = data.draw(st.sampled_from(["0", "1"]), label="threshold")
            pick += ["--t-2d", t, "--t-depth", t, "--t-fusion", "1e9" if t == "1" else t]
        argv = ["identify", "--db", registered, "--clip-2d", clip / "2d", "--clip-depth", clip / "depth",
                "--out-dir", tmp_path / "w" / "rec", *pick]
    else:
        argv = ["eval-ber", "--db", registered, "--corpus-dir", tmp_path / "w" / "tree",
                "--out", tmp_path / "w" / "ber.csv"]
    for _ in range(times):
        code, _, err = run_cli(*argv)
        event(f"{command} exit {code}")
        assert code in (0, 1, 2, 3, 4), err
        assert (code >= 2) == ("error: " in err)


def test_query_and_identify_share_retrieval_flags(capsys):
    from zw3d.fusion import MODES

    texts = {}
    for command in ("query", "identify"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        texts[command] = capsys.readouterr().out
    for text in texts.values():
        for flag in ("--db", "--clip-2d", "--clip-depth", "--thresholds", "--t-2d",
                     "--t-depth", "--t-fusion", "--gamma"):
            assert flag in text
        assert "{" + ",".join(MODES) + "}" in text
    assert texts["identify"].count("CSV written by calibrate") == 1


def test_attack_flags_come_from_family_table(capsys):
    from zw3d.attacks import FAMILY_PARAMS

    with pytest.raises(SystemExit):
        main(["attack", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for family, spec in FAMILY_PARAMS.items():
        assert f"--{spec.param}" in text
        assert family in text
    assert "gb/af/mf window side in pixels: 9, 15" in text
    assert "gn variance on the [0,1] scale: 0.005, 0.01" in text
    assert "rs downscale denominator: 2, 5" in text
    assert "cc/cb signed fraction: -0.3, 0.3" in text
    assert "seed for gn/fr/fd" in text


def test_identify_round_trip(corpus, registered, tmp_path):
    clip = corpus / "clip000"
    code, out, err = run_cli(
        "identify", "--db", registered, "--clip-2d", clip / "2d",
        "--clip-depth", clip / "depth", "--id", "clip000",
        "--out-dir", tmp_path / "rec",
    )
    assert code == 0, err
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert float(row["ber_2d"]) == 0.0
    assert float(row["ber_depth"]) == 0.0
    assert float(row["ber_fused"]) == 0.0
    assert (tmp_path / "rec/recovered_2d.pbm").exists()
    # recovered watermark equals the corpus watermark bit-for-bit
    from zw3d.shares import load_watermark

    got = load_watermark(tmp_path / "rec/recovered_2d.pbm")
    want = load_watermark(clip / "watermark_2d.pbm")
    np.testing.assert_array_equal(got, want)


@pytest.fixture(scope="module")
def unstored(corpus, tmp_path_factory):
    """A registry holding clip000 registered with --no-store-watermarks."""
    db = tmp_path_factory.mktemp("cli_unstored") / "reg.zw3d"
    clip = corpus / "clip000"
    code, _, err = run_cli("register", "--db", db, "--id", "clip000", "--no-store-watermarks",
                           "--clip-2d", clip / "2d", "--clip-depth", clip / "depth",
                           "--watermark-2d", clip / "watermark_2d.pbm",
                           "--watermark-depth", clip / "watermark_depth.pbm")
    assert code == 0, err
    return db


def test_register_all_black_stored_watermark_exit_4(corpus, tmp_path):
    # all-zero watermark fields mean "not stored", so a stored one needs a white bit
    clip = corpus / "clip000"
    black = tmp_path / "black.pbm"
    write_pbm(black, np.ones((40, 40), dtype=np.uint8))  # PBM bit 1 is black
    code, _, err = run_cli("register", "--db", tmp_path / "x.zw3d", "--id", "z",
                           "--clip-2d", clip / "2d", "--clip-depth", clip / "depth",
                           "--watermark-2d", clip / "watermark_2d.pbm", "--watermark-depth", black)
    assert code == 4 and "white bit" in err, err
    with Registry(tmp_path / "x.zw3d", "r") as db:
        assert len(db) == 0


def test_identify_without_stored_watermarks_prints_no_ber(corpus, unstored, tmp_path):
    clip = corpus / "clip000"
    code, out, err = run_cli("identify", "--db", unstored, "--clip-2d", clip / "2d",
                             "--clip-depth", clip / "depth", "--id", "clip000", "--out-dir", tmp_path / "rec")
    assert code == 0, err
    assert list(csv.DictReader(io.StringIO(out))) == [
        {"record_id": "clip000", "ber_2d": "", "ber_depth": "", "ber_fused": ""}]
    from zw3d.shares import load_watermark

    for channel in ("2d", "depth"):
        np.testing.assert_array_equal(load_watermark(tmp_path / f"rec/recovered_{channel}.pbm"),
                                      load_watermark(clip / f"watermark_{channel}.pbm"))


def test_eval_ber_without_stored_watermarks_exit_4(corpus, unstored, tmp_path):
    for role in ("2d", "depth"):
        shutil.copytree(corpus / "clip000" / role, tmp_path / "tree" / "clip000" / "none" / role)
    code, _, err = run_cli("eval-ber", "--db", unstored, "--corpus-dir", tmp_path / "tree",
                           "--out", tmp_path / "ber.csv")
    assert code == 4 and "'clip000'" in err and "without its watermarks" in err, err
    assert not (tmp_path / "ber.csv").exists()


def test_identify_auto_chains_query(corpus, registered, thresholds_csv, tmp_path):
    clip = corpus / "clip001"
    code, out, _ = run_cli(
        "identify", "--db", registered, "--clip-2d", clip / "2d",
        "--clip-depth", clip / "depth", "--auto", "--mode", "fused",
        "--thresholds", thresholds_csv, "--out-dir", tmp_path / "rec2",
    )
    assert code == 0
    assert "clip001" in out


def test_identify_flipped_clip_zero_ber(corpus, registered, tmp_path):
    clip = corpus / "clip002"
    for role in ("2d", "depth"):
        code, _, _ = run_cli("attack", "--family", "fl", "--direction", "horizontal",
                             "--role", role, "--in", clip / role,
                             "--out", tmp_path / "flipped" / role)
        assert code == 0
    code, out, _ = run_cli(
        "identify", "--db", registered, "--clip-2d", tmp_path / "flipped/2d",
        "--clip-depth", tmp_path / "flipped/depth", "--id", "clip002",
        "--out-dir", tmp_path / "rec_fl",
    )
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert float(row["ber_2d"]) <= 1e-6
    assert float(row["ber_depth"]) <= 1e-6


@pytest.mark.parametrize("gamma", ["abc", "-1"])
def test_identify_bad_config_gamma_exit_4_before_writing(corpus, registered, tmp_path, gamma):
    config = tmp_path / "zw3d.conf"
    config.write_text(f"gamma={gamma}\n")
    clip = corpus / "clip000"
    code, out, err = run_cli(
        "--config", config, "identify", "--db", registered, "--clip-2d", clip / "2d",
        "--clip-depth", clip / "depth", "--id", "clip000", "--out-dir", tmp_path / "rec",
    )
    assert code == 4, err
    assert out == "" and not (tmp_path / "rec").exists()


def test_identify_unknown_id_exit_5(corpus, registered, tmp_path):
    clip = corpus / "clip000"
    code, _, err = run_cli(
        "identify", "--db", registered, "--clip-2d", clip / "2d",
        "--clip-depth", clip / "depth", "--id", "ghost",
        "--out-dir", tmp_path / "rec3",
    )
    assert code == 5


def test_attack_flip_twice_restores(corpus, tmp_path):
    src = corpus / "clip000/2d"
    code, _, _ = run_cli("attack", "--family", "fl", "--direction", "horizontal",
                         "--in", src, "--out", tmp_path / "f1")
    assert code == 0
    code, _, _ = run_cli("attack", "--family", "fl", "--direction", "horizontal",
                         "--in", tmp_path / "f1", "--out", tmp_path / "f2")
    assert code == 0
    orig = load_clip(src, "2d")
    back = load_clip(tmp_path / "f2", "2d")
    for a, b in zip(orig.frames, back.frames):
        np.testing.assert_array_equal(a, b)


def test_attack_missing_param_exit_4(corpus, tmp_path):
    code, _, err = run_cli("attack", "--family", "gb",
                           "--in", corpus / "clip000/2d", "--out", tmp_path / "o")
    assert code == 4
    assert "window" in err


def test_attack_missing_seed_exit_4(corpus, tmp_path):
    code, _, err = run_cli("attack", "--family", "gn", "--variance", 0.005,
                           "--in", corpus / "clip000/2d", "--out", tmp_path / "o")
    assert code == 4
    assert "seed" in err


def test_attack_gamma_transform_flag(corpus, tmp_path):
    code, _, _ = run_cli("attack", "--family", "gt", "--gamma", 0.6,
                         "--in", corpus / "clip000/2d", "--out", tmp_path / "gt")
    assert code == 0
    assert (tmp_path / "gt/frame_000000.pgm").exists()


def test_dibr_two_baselines_four_sequences(corpus, tmp_path):
    clip = corpus / "clip000"
    code, out, _ = run_cli(
        "dibr", "--clip-2d", clip / "2d", "--clip-depth", clip / "depth",
        "--out-dir", tmp_path / "views", "--baseline", 0.05, "--baseline", 0.07,
    )
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "views").iterdir())
    assert names == ["left_05", "left_07", "right_05", "right_07"]
    for n in names:
        assert (tmp_path / "views" / n / "frame_000000.pgm").exists()
    # 0.05 and 0.054 both round to the tag 05: refused before any view is written
    code, _, err = run_cli(
        "dibr", "--clip-2d", clip / "2d", "--clip-depth", clip / "depth",
        "--out-dir", tmp_path / "clash", "--baseline", 0.05, "--baseline", 0.054,
    )
    assert code == 4 and "share a view tag" in err
    assert not (tmp_path / "clash").exists()


def test_eval_det_from_score_files(tmp_path):
    (tmp_path / "gen.txt").write_text("0.1\n0.2\n")
    (tmp_path / "imp.txt").write_text("0.8\n0.9\n# comment\n")
    code, _, _ = run_cli("eval-det", "--genuine", tmp_path / "gen.txt",
                         "--impostor", tmp_path / "imp.txt",
                         "--out", tmp_path / "det.csv")
    assert code == 0
    with open(tmp_path / "det.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["pfp"]) == 0.0 and float(rows[0]["pfn"]) == 1.0
    assert float(rows[-1]["pfp"]) == 1.0 and float(rows[-1]["pfn"]) == 0.0


def test_eval_ber_over_attacked_corpus(corpus, registered, tmp_path):
    # build an attacked corpus for one cheap attack (horizontal flip)
    layout = tmp_path / "attacked"
    for i in range(3):
        cid = f"clip{i:03d}"
        for role in ("2d", "depth"):
            code, _, _ = run_cli("attack", "--family", "fl", "--direction", "horizontal",
                                 "--role", role,
                                 "--in", corpus / cid / role,
                                 "--out", layout / cid / "flh" / role)
            assert code == 0
    code, _, err = run_cli("eval-ber", "--db", registered, "--corpus-dir", layout,
                           "--out", tmp_path / "ber.csv")
    assert code == 0, err
    with open(tmp_path / "ber.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3  # one attack x three channels
    assert all(r["attack"] == "flh" for r in rows)
    for r in rows:
        assert float(r["mean_ber"]) <= 0.02  # flips are near-exact for features


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "zw3d", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "register" in proc.stdout
