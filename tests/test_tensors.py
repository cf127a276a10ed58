"""Storage containers, the SCE1 file format, the deterministic generator,
and block planning."""

import hashlib
import math
import os
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothce import tensors
from smoothce.blocked import loss_and_grad
from smoothce.reference import naive_backward
from smoothce.tensors import (
    BadMagicError,
    BlockPlan,
    DenseMatrix,
    InvalidPlanError,
    NonFiniteDataError,
    TokenSequence,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    load_matrix,
    load_tokens,
    normal_icdf,
    plan_blocks,
    plan_working_set_bytes,
    random_instance,
    save_matrix,
    save_tokens,
    splitmix64,
    tiles_in_flight,
)


class TestFileFormat:
    def test_minimal_file_layout(self, tmp_path):
        """A 1x1 zero matrix writes a 28-byte header plus 8 payload bytes."""
        path = tmp_path / "one.sce1"
        save_matrix(DenseMatrix.from_array([[0.0]]), path)
        raw = path.read_bytes()
        assert len(raw) == 36
        assert raw[:4] == b"SCE1"
        assert raw[4] == 1  # float64 code
        assert raw[5:8] == b"\x00\x00\x00"
        assert struct.unpack("<Q", raw[8:16])[0] == 1
        assert struct.unpack("<Q", raw[16:24])[0] == 1
        assert raw[24:28] == b"\x00\x00\x00\x00"
        assert raw[28:] == struct.pack("<d", 0.0)

    def test_identity_roundtrip(self, tmp_path):
        path = tmp_path / "eye.sce1"
        m = DenseMatrix.from_array(np.eye(2))
        save_matrix(m, path)
        back = load_matrix(path)
        assert back.shape == (2, 2)
        assert np.array_equal(back.data, m.data)

    def test_declared_shape_loads(self, tmp_path):
        path = tmp_path / "m.sce1"
        vals = np.arange(6, dtype=np.float64).reshape(2, 3)
        save_matrix(DenseMatrix.from_array(vals), path)
        back = load_matrix(path)
        assert back.shape == (2, 3)
        assert np.array_equal(back.data, vals)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.sce1"
        header = struct.pack("<4sB3xQQ4x", b"SCE1", 1, 2, 3)
        path.write_bytes(header + struct.pack("<5d", *range(5)))
        with pytest.raises(TruncatedPayloadError):
            load_matrix(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sce1"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(BadMagicError):
            load_matrix(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.sce1"
        header = struct.pack("<4sB3xQQ4x", b"SCE1", 1, 1, 2)
        path.write_bytes(header + struct.pack("<2d", 1.0, math.nan))
        with pytest.raises(NonFiniteDataError):
            load_matrix(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "odd.sce1"
        path.write_bytes(struct.pack("<4sB3xQQ4x", b"SCE1", 7, 1, 1) + bytes(8))
        with pytest.raises(UnsupportedDtypeError):
            load_matrix(path)

    def test_matrix_loader_rejects_tokens(self, tmp_path):
        path = tmp_path / "tok.sce1"
        save_tokens(TokenSequence(np.array([0, 1, 2])), path)
        with pytest.raises(UnsupportedDtypeError):
            load_matrix(path)
        back = load_tokens(path)
        assert np.array_equal(back.targets, [0, 1, 2])

    def test_token_loader_rejects_matrices(self, tmp_path):
        path = tmp_path / "mat.sce1"
        save_matrix(DenseMatrix.from_array([[1.0, 2.0]]), path)
        with pytest.raises(UnsupportedDtypeError):
            load_tokens(path)

    def test_file_shorter_than_the_header(self, tmp_path):
        path = tmp_path / "stub.sce1"
        path.write_bytes(b"SCE1" + bytes(23))
        with pytest.raises(TruncatedPayloadError,
                           match=f"^{path}: file shorter than the 28-byte header$"):
            load_matrix(path)

    def test_unsupported_save_dtype(self, tmp_path):
        path = tmp_path / "m.sce1"
        with pytest.raises(ValueError, match="^unsupported save dtype 'f16'$"):
            save_matrix(DenseMatrix.from_array([[1.0]]), path, dtype="f16")
        assert not path.exists()

    def test_token_file_needs_one_column(self, tmp_path):
        path = tmp_path / "tok.sce1"
        path.write_bytes(struct.pack("<4sB3xQQ4x", b"SCE1", 2, 2, 2) + bytes(16))
        with pytest.raises(UnsupportedDtypeError,
                           match=f"^{path}: token sequences require cols=1, got 2$"):
            load_tokens(path)

    def test_token_index_beyond_32_bits_is_not_saved(self, tmp_path):
        path = tmp_path / "tok.sce1"
        with pytest.raises(ValueError, match="^token indices do not fit in 32 bits$"):
            save_tokens(TokenSequence(np.array([0, 2**32])), path)
        assert not path.exists()

    def test_f32_widened_on_load(self, tmp_path):
        path = tmp_path / "f32.sce1"
        vals = np.array([[0.5, 1.25], [2.0, -3.75]])
        save_matrix(DenseMatrix.from_array(vals), path, dtype="f32")
        raw = path.read_bytes()
        assert raw[4] == 0
        assert len(raw) == 28 + 4 * 4
        back = load_matrix(path)
        assert back.data.dtype == np.float64
        assert np.array_equal(back.data, vals)

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.integers(1, 16),
        cols=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_bit_exact(self, tmp_path_factory, rows, cols, seed):
        rng = np.random.default_rng(seed)
        magnitude = 10.0 ** float(rng.integers(-8, 8))
        m = DenseMatrix.from_array(rng.standard_normal((rows, cols)) * magnitude)
        path = tmp_path_factory.mktemp("rt") / "m.sce1"
        save_matrix(m, path)
        back = load_matrix(path)
        assert np.array_equal(back.data, m.data)
        # a second save emits identical bytes
        path2 = tmp_path_factory.mktemp("rt") / "m2.sce1"
        save_matrix(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_column_major_storage_writes_row_major_payload(self, tmp_path):
        """Matrices are stored F-ordered in memory, and the payload on disk
        stays row-major."""
        values = np.arange(6.0).reshape(2, 3)
        m = DenseMatrix.from_array(values)
        assert m.data.flags.f_contiguous
        path = tmp_path / "m.sce1"
        save_matrix(m, path)
        assert path.read_bytes()[28:] == values.astype("<f8").tobytes()
        back = load_matrix(path)
        assert back.data.flags.f_contiguous and np.array_equal(back.data, values)

    def test_f32_file_roundtrip_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        m = DenseMatrix.from_array(rng.standard_normal((8, 5)).astype(np.float32))
        p1, p2 = tmp_path / "a.sce1", tmp_path / "b.sce1"
        save_matrix(m, p1, dtype="f32")
        save_matrix(load_matrix(p1), p2, dtype="f32")
        assert p1.read_bytes() == p2.read_bytes()

    def test_f32_overflow_is_refused_before_the_file_is_opened(self, tmp_path):
        """A value beyond float32 range used to be written as inf, a file
        that load_matrix then refused; the float32 extremes still save."""
        path = tmp_path / "big.sce1"
        with pytest.raises(ValueError, match="f32"):
            save_matrix(DenseMatrix.from_array([[1e300, 1.0]]), path, dtype="f32")
        assert not path.exists()
        top = float(np.finfo(np.float32).max)
        for vals in ([[3.4028235e38, -3.4028235e38]], [[top, -top]]):
            save_matrix(DenseMatrix.from_array(vals), path, dtype="f32")
            assert np.array_equal(load_matrix(path).data, [[top, -top]])


    @pytest.mark.parametrize("rows, cols", [(5, 140_000), (300, 1000), (1, 3), (4, 0)])
    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_roundtrip_across_blocks(self, tmp_path, rows, cols, dtype):
        """Rows longer than one I/O block, many blocks with a partial last
        one, and an empty row all stream through save and load intact."""
        vals = np.random.default_rng(rows).standard_normal((rows, cols))
        if dtype == "f32":
            vals = vals.astype(np.float32).astype(np.float64)
        path = tmp_path / "m.sce1"
        save_matrix(DenseMatrix.from_array(vals), path, dtype=dtype)
        itemsize = 8 if dtype == "f64" else 4
        assert path.read_bytes()[28:] == vals.astype(f"<f{itemsize}").tobytes()
        back = load_matrix(path)
        assert back.data.flags.f_contiguous and np.array_equal(back.data, vals)

    @pytest.mark.parametrize("code, fmt", [(1, "<d"), (0, "<f")])
    def test_non_finite_entry_in_a_late_block(self, tmp_path, code, fmt):
        rows, cols = 64, 4096  # several blocks in either width
        path = tmp_path / "late.sce1"
        payload = bytearray(rows * cols * struct.calcsize(fmt))
        struct.pack_into(fmt, payload, len(payload) - struct.calcsize(fmt), math.inf)
        path.write_bytes(struct.pack("<4sB3xQQ4x", b"SCE1", code, rows, cols) + payload)
        with pytest.raises(NonFiniteDataError, match="late.sce1"):
            load_matrix(path)

    def test_truncation_is_found_before_reading(self, tmp_path):
        """A header declaring 2**40 x 2**20 entries over an 8-byte payload
        is rejected from the file size, with nothing allocated for it."""
        path = tmp_path / "huge.sce1"
        path.write_bytes(struct.pack("<4sB3xQQ4x", b"SCE1", 1, 2**40, 2**20) + bytes(8))
        with pytest.raises(TruncatedPayloadError, match="header declares"):
            load_matrix(path)

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_file_io_peak_is_the_matrix_plus_one_block(self, tmp_path, dtype):
        """Loading holds the result plus one block of payload; saving holds
        one block. Whole-payload copies would add 8-16 MB here."""
        m = random_instance(5, 64, 16384, 128, 1.0)[1]  # 16.8 MB of f64
        path = tmp_path / "m.sce1"
        itemsize = 8 if dtype == "f64" else 4
        slack = tensors._block_rows(m.cols, itemsize) * m.cols * itemsize + 2**20
        tracemalloc.start()
        try:
            save_matrix(m, path, dtype=dtype)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = load_matrix(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert save_peak <= slack
        assert load_peak <= m.data.nbytes + slack
        if dtype == "f64":
            assert np.array_equal(back.data, m.data)


class TestContainers:
    def test_from_array_needs_two_dimensions(self):
        with pytest.raises(ValueError, match="^expected a 2-D array, got ndim=3$"):
            DenseMatrix.from_array(np.zeros((2, 2, 2)))

    def test_targets_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="^targets must be one-dimensional$"):
            TokenSequence(np.zeros((2, 2), dtype=np.int64))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DenseMatrix(2, 2, np.zeros((2, 3)))

    def test_real_data_is_widened_and_other_dtypes_refused(self):
        for dtype in (np.float32, np.int64, np.uint8):
            m = DenseMatrix(2, 3, np.arange(6, dtype=dtype).reshape(2, 3))
            assert m.data.dtype == np.float64 and not m.data.flags.writeable
            assert np.array_equal(m.data, np.arange(6.0).reshape(2, 3))
        for bad in (np.ones((2, 3), bool), np.ones((2, 3), complex),
                    np.full((2, 3), "1"), np.ones((2, 3), object)):
            with pytest.raises(ValueError, match="real numbers"):
                DenseMatrix(2, 3, bad)

    def test_from_array_rejects_nan(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                DenseMatrix.from_array([[1.0, bad], [2.0, 3.0]])
        assert DenseMatrix.from_array(np.empty((0, 3))).shape == (0, 3)

    def test_data_is_read_only(self):
        m = DenseMatrix.from_array([[1.0]])
        with pytest.raises(ValueError):
            m.data[0, 0] = 2.0

    def test_later_write_to_the_source_does_not_show(self):
        """A writable float64 source used to be kept as it was, so a later
        write changed the matrix."""
        a = np.zeros((2, 3))
        m = DenseMatrix(2, 3, a)
        a[0, 0] = 7.0
        assert m.data[0, 0] == 0.0 and not m.data.flags.writeable
        with pytest.raises(ValueError):
            m.data[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constructor_refuses_non_finite_data(self, bad):
        """The direct constructor used to accept non-finite float64 data."""
        with pytest.raises(ValueError, match="non-finite"):
            DenseMatrix(1, 2, np.array([[bad, 1.0]]))
        kept = np.array([[1.0, bad]])
        kept.setflags(write=False)
        with pytest.raises(ValueError, match="non-finite"):
            DenseMatrix(1, 2, kept)

    def test_owned_read_only_float64_is_kept(self):
        a = np.ones((2, 3), order="F")
        a.setflags(write=False)
        assert DenseMatrix(2, 3, a).data is a

    def test_read_only_c_ordered_array_is_copied_column_major(self):
        """Every matrix is F-ordered: a frozen C-ordered array used to be
        kept, so the engines read the same values in another order."""
        a = np.arange(6.0).reshape(2, 3)
        a.setflags(write=False)
        m = DenseMatrix(2, 3, a)
        assert m.data is not a and m.data.flags.f_contiguous
        assert np.array_equal(m.data, a) and not m.data.flags.writeable
        for source in (np.ones((3, 4)), np.ones((4, 3)).T, np.ones((3, 8))[:, ::2]):
            assert DenseMatrix(3, 4, source).data.flags.f_contiguous

    @pytest.mark.parametrize("rows, cols", [(2, 4.0), (2.0, 4), (True, 4), (2, np.float64(4))],
                             ids=["float", "float-rows", "bool", "numpy-float"])
    def test_non_integer_extents_refused(self, rows, cols):
        """(2, 4) == (2, 4.0), so a float extent used to pass the shape
        check; the naive engine then ran and the blocked one failed inside
        numpy."""
        with pytest.raises(ValueError, match="must be an integer"):
            DenseMatrix(rows, cols, np.ones((2, 4)))
        assert DenseMatrix(np.int64(2), np.uint8(4), np.ones((2, 4))).shape == (2, 4)

    def test_read_only_view_is_copied(self):
        """A read-only view shares memory with an array someone may still
        write, so it is copied like a writable array."""
        row = np.arange(3.0)
        a = np.broadcast_to(row, (2, 3))
        m = DenseMatrix(2, 3, a)
        assert m.data is not a and not np.shares_memory(m.data, row)
        row[0] = 5.0
        assert np.array_equal(m.data, [[0.0, 1.0, 2.0]] * 2)

    def test_built_matrices_are_handed_over_without_a_copy(self, tmp_path, monkeypatch):
        """The generator, the loader and both engines' gradients hand their
        fresh arrays to `_wrap`, which keeps each one."""
        handed = []
        wrap = DenseMatrix._wrap.__func__

        def spy(cls, a):
            m = wrap(cls, a)
            handed.append(m.data is a)
            return m

        monkeypatch.setattr(DenseMatrix, "_wrap", classmethod(spy))
        e, c, x = random_instance(3, 8, 16, 4, 0.5)
        save_matrix(c, tmp_path / "c.sce1")
        load_matrix(tmp_path / "c.sce1")
        loss_and_grad(e, c, x, 0.1, plan_blocks(8, 16, 4, workers=1))
        naive_backward(e, c, x, 0.1)
        assert handed == [True] * 7

    def test_token_vocab_check(self):
        x = TokenSequence(np.array([0, 5, 2]))
        x.check_vocab(6)
        with pytest.raises(ValueError):
            x.check_vocab(5)

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            TokenSequence(np.array([0, -1]))

    @pytest.mark.parametrize("targets", [[1.7, 2.2], [True, False]])
    def test_non_integer_tokens_rejected(self, targets):
        """Float or bool targets are refused, not truncated to indices."""
        arr = np.array(targets)
        with pytest.raises(ValueError, match=str(arr.dtype)):
            TokenSequence(arr)
        assert len(TokenSequence(np.array([]))) == 0
        assert TokenSequence(np.array([3], dtype=np.uint32)).targets.tolist() == [3]


class TestGenerator:
    def test_same_seed_same_instance(self):
        a = random_instance(123, 8, 16, 4, 0.5)
        b = random_instance(123, 8, 16, 4, 0.5)
        for left, right in zip(a[:2], b[:2]):
            assert np.array_equal(left.data, right.data)
        assert np.array_equal(a[2].targets, b[2].targets)

    def test_column_major_fill_keeps_the_row_major_stream(self):
        """E and C are stored F-ordered, and entry (r, k) of each still comes
        from the counter of its row-major position: E takes counters
        0..d*n-1, C the next d*v, the targets the last n."""
        n, v, d, scale = 5, 7, 3, 0.5
        e, c, _ = random_instance(9, n, v, d, scale)
        bits = splitmix64(9, 0, d * (n + v) + n)
        gauss = normal_icdf((((bits >> np.uint64(11)).astype(np.float64) + 0.5)
                             * 2.0 ** -53)[:d * (n + v)]) * scale
        assert e.data.flags.f_contiguous and c.data.flags.f_contiguous
        assert np.array_equal(e.data, gauss[:d * n].reshape(d, n))
        assert np.array_equal(c.data, gauss[d * n:].reshape(d, v))

    def test_shapes(self):
        e, c, x = random_instance(7, n=8, v=16, d=4, scale=1.0)
        assert e.shape == (4, 8)
        assert c.shape == (4, 16)
        assert len(x) == 8
        assert x.targets.min() >= 0 and x.targets.max() < 16

    def test_different_seeds_differ(self):
        a = random_instance(1, 8, 16, 4, 0.5)
        b = random_instance(2, 8, 16, 4, 0.5)
        assert not np.array_equal(a[0].data, b[0].data)

    def test_sample_std_tracks_scale(self):
        """Law of large numbers: over 1e5+ entries the sample std lands
        within 5% of the requested scale."""
        e, c, _ = random_instance(11, n=200, v=200, d=256, scale=0.02)
        pooled = np.concatenate([e.data.ravel(), c.data.ravel()])
        assert pooled.size >= 10**5
        assert abs(pooled.std() - 0.02) < 0.05 * 0.02
        assert abs(pooled.mean()) < 5e-4

    def test_targets_cover_vocab(self):
        _, _, x = random_instance(3, n=4096, v=7, d=1, scale=1.0)
        assert set(np.unique(x.targets)) == set(range(7))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            random_instance(0, 0, 4, 4, 1.0)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="scale must be finite and positive"):
                random_instance(0, 4, 4, 4, bad)

    @pytest.mark.parametrize("seed", [-1, 2**64 + 5, 7])
    @pytest.mark.parametrize("n, v, d", [
        (1, 1, 1),          # n = 1, |V| = 1
        (1, 40_000, 1),     # C in three chunks, the last one partial
        (300, 20_000, 60),  # whole columns, several chunks, partial last
        (3, 1, 16_390),     # D above one chunk: each column in two pieces
        (2, 3, 40_000),     # three pieces per column
    ])
    def test_chunked_fill_matches_the_one_shot_stream(self, seed, n, v, d):
        """The chunked fill gives every entry the value the whole stream
        computed at once gives its counter."""
        e, c, x = random_instance(seed, n, v, d, 0.5)
        bits = splitmix64(seed, 0, d * (n + v) + n)
        u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        gauss = normal_icdf(u[:d * (n + v)]) * 0.5
        assert np.array_equal(e.data, gauss[:d * n].reshape(d, n))
        assert np.array_equal(c.data, gauss[d * n:].reshape(d, v))
        assert np.array_equal(x.targets, np.minimum((u[d * (n + v):] * v).astype(np.int64),
                                                    v - 1))

    def test_instance_digest_is_pinned(self):
        """SHA-1 of (E, C, x) at 256 x 4096 x 64, seed 0, scale 0.02, as
        generated before the fill was chunked."""
        e, c, x = random_instance(0, 256, 4096, 64, 0.02)
        h = hashlib.sha1()
        for a in (e.data, c.data, x.targets):
            h.update(a.tobytes())
        assert h.hexdigest() == "409b71deeb04af617aced2b639532cfa02ee0c58"

    def test_generation_peak_is_the_outputs(self):
        """At 256 x 16384 x 128 (17 MB of outputs) generation holds the
        outputs plus its fixed scratch, not full-size temporaries."""
        tracemalloc.start()
        try:
            e, c, x = random_instance(3, 256, 16384, 128, 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = e.data.nbytes + c.data.nbytes + x.targets.nbytes
        assert outputs >= 16 * 10**6
        assert peak <= outputs + 2 * 2**20


def _splitmix64_reference(seed: int, k: int) -> int:
    """Scalar big-int splitmix64, independent of the vectorized path."""
    mask = (1 << 64) - 1
    z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


_ICDF_P_LOW = 0.02425


def _normal_icdf_reference(u: np.ndarray) -> np.ndarray:
    """Acklam's rational approximation evaluated branch by branch on the
    masked entries, as the generator did before its chunked fill."""
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    out = np.empty_like(u)
    lo, hi = u < _ICDF_P_LOW, u > 1.0 - _ICDF_P_LOW
    mid = ~(lo | hi)
    q = u[mid] - 0.5
    r = q * q
    num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
    den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    out[mid] = num * q / den
    for mask, sign, p in ((lo, 1.0, u[lo]), (hi, -1.0, 1.0 - u[hi])):
        q = np.sqrt(-2.0 * np.log(p))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        out[mask] = sign * num / den
    return out


class TestPrng:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 0xDEADBEEF])
    def test_matches_scalar_reference(self, seed):
        got = splitmix64(seed, 0, 20)
        want = [_splitmix64_reference(seed, k) for k in range(20)]
        assert [int(w) for w in got] == want

    def test_counter_addressing(self):
        """A slice of the stream equals the same counters read directly."""
        full = splitmix64(99, 0, 50)
        part = splitmix64(99, 30, 20)
        assert np.array_equal(full[30:], part)

    def test_inverse_cdf_matches_the_masked_formulation(self):
        """The central branch now runs over every entry before the tails
        are overwritten; each entry's arithmetic is unchanged, so the
        values equal those of branch-by-branch evaluation bit for bit,
        including at the branch edges, and the out/scratch form agrees."""
        edges = [_ICDF_P_LOW, 1 - _ICDF_P_LOW, 2.0 ** -54, 1 - 2.0 ** -53, 0.5, 5e-324]
        u = np.concatenate([np.random.default_rng(0).random(200_000), edges,
                            np.nextafter(edges, 0), np.nextafter(edges, 1)])
        u = u[(u > 0) & (u < 1)]
        want = _normal_icdf_reference(u)
        assert np.array_equal(normal_icdf(u), want)
        out, scratch = np.empty_like(u), [np.empty_like(u) for _ in range(3)]
        assert normal_icdf(u, out=out, scratch=scratch) is out
        assert np.array_equal(out, want)

    def test_inverse_cdf_against_scipy(self):
        from scipy.stats import norm

        u = np.linspace(1e-9, 1 - 1e-9, 20001)
        got = normal_icdf(u)
        want = norm.ppf(u)
        err = np.abs(got - want) / np.maximum(np.abs(want), 1e-12)
        assert err.max() < 2e-9


class TestPlanning:
    def test_overrides_clamped_to_extents(self):
        plan = plan_blocks(8, 16, 4, n_block=128, v_block=512)
        assert (plan.n_block, plan.v_block) == (8, 16)

    def test_default_working_set_fits_budget(self):
        plan = plan_blocks(4096, 65536, 256)
        assert plan_working_set_bytes(plan) <= 4 * 1024 * 1024

    def test_working_set_figures_quoted_in_the_docs(self):
        """One serial default tile holds the logit tile plus one N_B row;
        at 256 x 65536 x 128 two workers hold two half-width tiles."""
        serial = plan_blocks(1024, 16384, 64, workers=1)
        assert plan_working_set_bytes(serial) == 8 * 128 * (512 + 1) == 525_312
        pool = plan_blocks(256, 65536, 128, workers=2)
        in_flight = tiles_in_flight(256, pool.n_block, 2)
        assert in_flight * plan_working_set_bytes(pool) == 526_336

    def test_zero_override_rejected(self):
        with pytest.raises(InvalidPlanError):
            plan_blocks(8, 16, 4, n_block=0)

    def test_plan_sizes_checked_at_construction(self):
        with pytest.raises(InvalidPlanError, match="v_block"):
            BlockPlan(4, 0)
        assert BlockPlan(64, 64).clamped(0, 16) == BlockPlan(1, 16)

    @pytest.mark.parametrize("fields, name", [
        (dict(n_block=8.0, v_block=32), "n_block"),
        (dict(n_block=8, v_block=32.5), "v_block"),
        (dict(n_block=8, v_block=True), "v_block"),
        (dict(n_block=8, v_block=32, workers=True), "workers"),
        (dict(n_block=8, v_block=32, workers=2.0), "workers"),
        (dict(n_block=8, v_block=32, workers=0), "workers"),
    ])
    def test_plan_fields_must_be_positive_integers(self, fields, name):
        with pytest.raises(InvalidPlanError, match=name):
            BlockPlan(**fields)
        numpy_ints = BlockPlan(np.int64(8), np.int32(32), workers=np.int64(2))
        assert numpy_ints.workers == 2

    def test_workers_is_keyword_only(self):
        """A positional third argument must not silently become the
        worker count."""
        with pytest.raises(TypeError):
            BlockPlan(8, 32, 4)
        assert BlockPlan(8, 32, workers=4).workers == 4

    def test_empty_batch_gets_one_token_blocks(self):
        """An empty extent gets one-wide blocks; only a negative one is
        refused here, since the engines refuse an empty classifier."""
        plan = plan_blocks(0, 16, 4, workers=2)
        assert (plan.n_block, plan.v_block) == (1, 16)
        assert tiles_in_flight(0, plan.n_block, 2) == 0
        assert plan_blocks(0, 0, 4, workers=2) == BlockPlan(1, 1, workers=2)
        assert plan_blocks(0, 16, 0, workers=2) == BlockPlan(1, 16, workers=2)
        for n, v, d in ((-1, 16, 4), (0, -1, 4), (0, 16, -1)):
            with pytest.raises(ValueError, match="need n, v, d >= 0"):
                plan_blocks(n, v, d)

    @pytest.mark.parametrize("n, v, d", [(1024, 16384, 64), (256, 65536, 128),
                                         (256, 4096, 64)])
    def test_default_plan_at_benchmark_shapes(self, n, v, d):
        plan = plan_blocks(n, v, d, workers=1)
        assert plan == BlockPlan(128, 512, workers=1)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 5000), v=st.integers(1, 70000), d=st.integers(1, 300))
    def test_tiles_never_exceed_extents(self, n, v, d):
        plan = plan_blocks(n, v, d)
        assert 1 <= plan.n_block <= n
        assert 1 <= plan.v_block <= v

    @pytest.mark.parametrize("workers, v_block", [(1, 512), (2, 256), (3, 128),
                                                  (4, 128), (16, 128)])
    def test_workers_split_the_vocab_block(self, workers, v_block):
        """V_B shrinks so that the tiles in flight hold about what one
        serial tile holds, but never below N_B."""
        plan = plan_blocks(1024, 16384, 64, workers=workers)
        assert (plan.n_block, plan.v_block) == (128, v_block)

    def test_one_token_block_keeps_the_serial_plan(self):
        assert (replace(plan_blocks(128, 16384, 64, workers=4), workers=1)
                == plan_blocks(128, 16384, 64, workers=1))

    def test_tiles_in_flight(self):
        assert tiles_in_flight(1024, 128, 3) == 3
        assert tiles_in_flight(200, 128, 8) == 2
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count()
        assert tiles_in_flight(200, 128, None) == min(cpus, 2)
        with pytest.raises(ValueError):
            tiles_in_flight(8, 4, 0)
