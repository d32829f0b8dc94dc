import numpy as np
import pytest

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
        o2d, odep, w2d, wdep = db.lookup_ownership("clip-é")
        np.testing.assert_array_equal(o2d, rec.o_2d)
        np.testing.assert_array_equal(odep, rec.o_depth)
        np.testing.assert_array_equal(w2d, rec.w_2d)
        np.testing.assert_array_equal(wdep, rec.w_depth)


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
            db.lookup_ownership("ghost")


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
        _, _, w2d, wdep = db.lookup_ownership("nowm")
        assert not w2d.any() and not wdep.any()
