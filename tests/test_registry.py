import contextlib
import hashlib
import io
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zw3d import registry as registry_mod
from zw3d.cli import main as cli_main

from zw3d.registry import (
    DuplicateIdError,
    RegistrationRecord,
    Registry,
    RegistryClosedError,
    RegistryCorruptError,
    RegistryError,
    UnknownIdError,
)
from zw3d.shares import build_master_share, build_ownership_share


def make_record(rng, record_id):
    V = rng.integers(0, 2, size=(40, 40), dtype=np.uint8)
    Vd = rng.integers(0, 2, size=(40, 40), dtype=np.uint8)
    W = rng.integers(0, 2, size=(40, 40), dtype=np.uint8)
    Wd = rng.integers(0, 2, size=(40, 40), dtype=np.uint8)
    return RegistrationRecord(
        record_id=record_id,
        fn_2d=rng.normal(size=1600),
        fn_depth=rng.normal(size=1600),
        o_2d=build_ownership_share(build_master_share(V), W),
        o_depth=build_ownership_share(build_master_share(Vd), Wd),
        w_2d=W,
        w_depth=Wd,
    )


def test_register_and_count(tmp_path):
    rng = np.random.default_rng(0)
    with Registry(tmp_path / "db.zw3d", "a") as db:
        assert db.register(make_record(rng, "a")) == 1
        assert db.register(make_record(rng, "b")) == 2
        assert len(db) == 2


def test_duplicate_id_rejected(tmp_path):
    rng = np.random.default_rng(1)
    with Registry(tmp_path / "db.zw3d", "a") as db:
        db.register(make_record(rng, "a"))
        with pytest.raises(DuplicateIdError):
            db.register(make_record(rng, "a"))


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    rec = make_record(rng, "clip-é")  # non-ASCII id exercises UTF-8 path
    path = tmp_path / "db.zw3d"
    with Registry(path, "a") as db:
        db.register(rec)
    with Registry(path, "r") as db:
        got = db.get_record("clip-é")
        np.testing.assert_array_equal(got.fn_2d, rec.fn_2d)
        np.testing.assert_array_equal(got.fn_depth, rec.fn_depth)
        np.testing.assert_array_equal(got.o_2d, rec.o_2d)
        np.testing.assert_array_equal(got.o_depth, rec.o_depth)
        np.testing.assert_array_equal(got.w_2d, rec.w_2d)
        np.testing.assert_array_equal(got.w_depth, rec.w_depth)


def test_hundred_records_reopen(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "db.zw3d"
    records = [make_record(rng, f"clip{i:03d}") for i in range(100)]
    with Registry(path, "a") as db:
        for rec in records:
            db.register(rec)
    with Registry(path, "r") as db:
        assert len(db) == 100
        for rec in records:
            got = db.get_record(rec.record_id)
            np.testing.assert_array_equal(got.fn_2d, rec.fn_2d)
            np.testing.assert_array_equal(got.o_depth, rec.o_depth)


def test_iterate_features_order_and_identity(tmp_path):
    rng = np.random.default_rng(4)
    records = [make_record(rng, f"r{i}") for i in range(7)]
    with Registry(tmp_path / "db.zw3d", "a") as db:
        for rec in records:
            db.register(rec)
        seen = list(db.iterate_features())
    assert [rid for rid, _, _ in seen] == [r.record_id for r in records]
    assert {rid for rid, _, _ in seen} == {r.record_id for r in records}
    for (rid, fn2d, fndep), rec in zip(seen, records):
        np.testing.assert_array_equal(fn2d, rec.fn_2d)
        np.testing.assert_array_equal(fndep, rec.fn_depth)


def test_empty_registry_iterates_nothing(tmp_path):
    with Registry(tmp_path / "db.zw3d", "a") as db:
        assert list(db.iterate_features()) == []


def test_unknown_id(tmp_path):
    with Registry(tmp_path / "db.zw3d", "a") as db:
        with pytest.raises(UnknownIdError):
            db.get_record("ghost")


def test_durability_reopen_is_identity(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "db.zw3d"
    with Registry(path, "a") as db:
        for i in range(5):
            db.register(make_record(rng, f"c{i}"))
    before = path.read_bytes()
    with Registry(path, "r") as db:
        list(db.iterate_features())
    assert path.read_bytes() == before
    # reopening for append without writing must not change a byte either
    with Registry(path, "a"):
        pass
    assert path.read_bytes() == before


def test_corruption_detected(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "db.zw3d"
    with Registry(path, "a") as db:
        db.register(make_record(rng, "x"))
    raw = bytearray(path.read_bytes())
    raw[200] ^= 0xFF  # flip a byte inside the feature payload
    path.write_bytes(bytes(raw))
    with Registry(path, "r") as db:
        with pytest.raises(RegistryCorruptError, match="checksum"):
            db.get_record("x")


@pytest.mark.parametrize("mode", ["r", "a"])
def test_record_past_end_of_file_rejected(tmp_path, mode):
    rng = np.random.default_rng(7)
    path = tmp_path / "db.zw3d"
    with Registry(path, "a") as db:
        for rid in ("r0", "r1", "r2"):
            db.register(make_record(rng, rid))
    cut = path.read_bytes()[:-100]
    path.write_bytes(cut)
    for _ in range(2):  # a failed open releases its handle and writer lock
        with pytest.raises(RegistryCorruptError, match="past the end"):
            Registry(path, mode)
    assert path.read_bytes() == cut


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "db.zw3d"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(RegistryCorruptError, match="magic"):
        Registry(path, "r")


def test_closed_handle_rejected(tmp_path):
    rng = np.random.default_rng(7)
    db = Registry(tmp_path / "db.zw3d", "a")
    db.register(make_record(rng, "a"))
    db.close()
    with pytest.raises(RegistryClosedError):
        list(db.iterate_features())
    with pytest.raises(RegistryClosedError):
        db.register(make_record(rng, "b"))


def test_read_only_handle_cannot_register(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "db.zw3d"
    with Registry(path, "a") as db:
        db.register(make_record(rng, "a"))
    with Registry(path, "r") as db:
        with pytest.raises(RegistryError, match="read-only"):
            db.register(make_record(rng, "b"))


def test_single_writer_lock(tmp_path):
    path = tmp_path / "db.zw3d"
    with Registry(path, "a"):
        with pytest.raises(RegistryError, match="locked"):
            Registry(path, "a")
    # released on close
    with Registry(path, "a"):
        pass


def test_readers_allowed_alongside_writer(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "db.zw3d"
    with Registry(path, "a") as writer:
        writer.register(make_record(rng, "a"))
        with Registry(path, "r") as reader:
            assert reader.ids() == ["a"]


def test_store_watermarks_flag(tmp_path):
    rng = np.random.default_rng(10)
    rec = make_record(rng, "nowm")
    path = tmp_path / "db.zw3d"
    with Registry(path, "a") as db:
        db.register(rec, store_watermarks=False)
    with Registry(path, "r") as db:
        got = db.get_record("nowm")
        assert not got.w_2d.any() and not got.w_depth.any()



# -- the v1 byte layout ------------------------------------------------------

# SHA-256 of the file ``_golden_registry`` writes, taken from the writer that
# spelled the layout out field by field; any drift of the v1 format breaks it.
GOLDEN_SHA256 = "77b93b073d84a619de5363a516bf6af9d1a96ffb44c8505ce24005a86d9c0417"
GOLDEN_IDS = [("a", True), ("clip-é", False), ("日本語-3", True)]


def _golden_record(k, record_id):
    """A record built from exact arithmetic only, so its bytes are portable."""
    i = np.arange(1600)
    fn_2d = (i - 800 + k) / 64.0
    fn_2d[:2] = -0.0, 5e-324
    fn_depth = ((i * 7919 + k) % 1601) / 16.0 - 50.0
    r, c = np.indices((40, 40))
    V = ((r * c + k) % 3 == 0).astype(np.uint8)
    W = ((r ^ c ^ k) & 1).astype(np.uint8)
    Wd = ((r + 2 * c + k) % 5 < 2).astype(np.uint8)
    return RegistrationRecord(record_id, fn_2d, fn_depth,
                              build_ownership_share(build_master_share(V), W),
                              build_ownership_share(build_master_share(1 - V), Wd), W, Wd)


def test_v1_layout_golden_hash(tmp_path):
    path = tmp_path / "g.zw3d"
    with Registry(path, "a") as db:
        for k, (rid, wm) in enumerate(GOLDEN_IDS):
            db.register(_golden_record(k, rid), store_watermarks=wm)
    raw = path.read_bytes()
    id_bytes = sum(len(rid.encode()) for rid, _ in GOLDEN_IDS)
    assert len(raw) == 14 + 3 * (2 + 27600 + 4) + id_bytes
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_SHA256
    with Registry(path, "r") as db:
        for k, (rid, wm) in enumerate(GOLDEN_IDS):
            want, got = _golden_record(k, rid), db.get_record(rid)
            assert got.record_id == rid
            assert got.fn_2d.tobytes() == want.fn_2d.tobytes()
            np.testing.assert_array_equal(got.o_depth, want.o_depth)
            np.testing.assert_array_equal(got.w_2d, want.w_2d if wm else 0)


# -- I/O calls ---------------------------------------------------------------

class _RecordingOs:
    """Stands in for ``os`` inside the registry module, logging file calls."""

    LOGGED = ("pread", "preadv", "read", "pwrite", "write", "ftruncate", "fsync", "lseek")

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in self.LOGGED:
            return real

        def logged(*args):
            if name == "pwrite":
                self.calls.append((name, args[2], len(args[1])))
            elif name == "ftruncate":
                self.calls.append((name, args[1]))
            else:
                self.calls.append((name,))
            return real(*args)

        return logged


@pytest.fixture
def recording_os(monkeypatch):
    fake = _RecordingOs()
    monkeypatch.setattr(registry_mod, "os", fake)
    return fake


def test_scan_issues_one_read_per_record(tmp_path, recording_os):
    rng = np.random.default_rng(11)
    path = tmp_path / "db.zw3d"
    with Registry(path, "a") as db:
        for i in range(9):
            db.register(make_record(rng, f"r{i}"))
    with Registry(path, "r") as db:
        recording_os.calls.clear()
        seen = list(db.iterate_features())
    assert len(seen) == 9
    assert recording_os.calls == [("preadv",)] * 9
    # each record's features are its own writable memory
    seen[0][1][:] = 0.0
    assert not np.shares_memory(seen[0][1], seen[1][1]) and seen[1][1].any()


def test_append_fsyncs_record_before_count(tmp_path, recording_os):
    rng = np.random.default_rng(12)
    path = tmp_path / "db.zw3d"
    with Registry(path, "a") as db:
        db.register(make_record(rng, "a"))
        at = path.stat().st_size
        recording_os.calls.clear()
        db.register(make_record(rng, "bb"))
    size = path.stat().st_size
    assert recording_os.calls == [
        ("pwrite", at, size - at),   # the record, after the last counted one
        ("ftruncate", size),
        ("fsync",),
        ("pwrite", 0, 14),           # then the header with the new count
        ("fsync",),
    ]


def test_torn_append_reopens_with_old_count(tmp_path):
    rng = np.random.default_rng(13)
    recs = [make_record(rng, rid) for rid in ("r0", "r1", "torn")]
    clean, torn = tmp_path / "clean.zw3d", tmp_path / "torn.zw3d"
    with Registry(clean, "a") as db:
        for rec in recs[:2]:
            db.register(rec)
        base = clean.read_bytes()
        db.register(recs[2])
    full = clean.read_bytes()
    # the header still counts 2 while any prefix of the third record is on disk
    torn.write_bytes(base + full[len(base):])
    for cut in range(len(full), len(base) - 1, -1):
        os.truncate(torn, cut)
        with Registry(torn, "r") as db:
            assert db.ids() == ["r0", "r1"]
    # the next append overwrites the torn tail: the file equals a clean append
    tail = len(full) - len(base)
    for keep in (0, 1, 2, 6, 2 + 4 + 12800, tail - 4, tail - 1, tail):
        torn.write_bytes(base + full[len(base) : len(base) + keep])
        with Registry(torn, "a") as db:
            assert db.register(recs[2]) == 3
        with Registry(torn, "r") as db:
            assert db.ids() == ["r0", "r1", "torn"]
        assert torn.read_bytes() == full


# -- property tests: damaged files fail only with RegistryCorruptError --------

@pytest.fixture(scope="module")
def small_registry(tmp_path_factory):
    rng = np.random.default_rng(14)
    path = tmp_path_factory.mktemp("fuzz") / "db.zw3d"
    with Registry(path, "a") as db:
        for rid in ("c0", "c-é"):
            db.register(make_record(rng, rid))
    return path.read_bytes()


def _read_everything(path):
    with Registry(path, "r") as db:
        list(db.iterate_features())
        for rid in db.ids():
            db.get_record(rid)


@settings(derandomize=True, deadline=None, max_examples=150, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_registry_raises_only_corrupt_error(small_registry, tmp_path, data):
    n = len(small_registry)
    raw = bytearray(small_registry[: data.draw(st.none() | st.integers(0, n - 1), label="cut")])
    for pos, mask in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)),
                                        max_size=3), label="flips"):
        if pos < len(raw):
            raw[pos] ^= mask
    if raw == small_registry:
        return
    path = tmp_path / "damaged.zw3d"
    path.write_bytes(bytes(raw))
    try:
        _read_everything(path)
    except RegistryCorruptError:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(["calibrate", "--db", str(path), "--out", str(tmp_path / "t.csv")])
        assert code == 3, err.getvalue()
