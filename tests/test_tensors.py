"""Storage containers, the SCE1 file format, the deterministic generator,
and block planning."""

import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothce.tensors import (
    BadMagicError,
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


class TestContainers:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DenseMatrix(2, 2, np.zeros((2, 3)))

    def test_from_array_rejects_nan(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                DenseMatrix.from_array([[1.0, bad], [2.0, 3.0]])
        assert DenseMatrix.from_array(np.empty((0, 3))).shape == (0, 3)

    def test_data_is_read_only(self):
        m = DenseMatrix.from_array([[1.0]])
        with pytest.raises(ValueError):
            m.data[0, 0] = 2.0

    def test_token_vocab_check(self):
        x = TokenSequence(np.array([0, 5, 2]))
        x.check_vocab(6)
        with pytest.raises(ValueError):
            x.check_vocab(5)

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            TokenSequence(np.array([0, -1]))


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
        with pytest.raises(ValueError):
            random_instance(0, 4, 4, 4, 0.0)


def _splitmix64_reference(seed: int, k: int) -> int:
    """Scalar big-int splitmix64, independent of the vectorized path."""
    mask = (1 << 64) - 1
    z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


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

    def test_inverse_cdf_against_scipy(self):
        from scipy.stats import norm

        u = np.linspace(1e-9, 1 - 1e-9, 20001)
        got = normal_icdf(u)
        want = norm.ppf(u)
        err = np.abs(got - want) / np.maximum(np.abs(want), 1e-12)
        assert err.max() < 2e-9


class TestPlanning:
    def test_overrides_clamped_to_extents(self):
        plan = plan_blocks(8, 16, 4, n_block=128, v_block=512, d_block=64)
        assert (plan.n_block, plan.v_block, plan.d_block) == (8, 16, 4)

    def test_default_working_set_fits_budget(self):
        plan = plan_blocks(4096, 65536, 256)
        assert plan_working_set_bytes(plan) <= 4 * 1024 * 1024

    def test_zero_override_rejected(self):
        with pytest.raises(InvalidPlanError):
            plan_blocks(8, 16, 4, n_block=0)

    @pytest.mark.parametrize("n, v, d", [(1024, 16384, 64), (256, 65536, 128),
                                         (256, 4096, 64)])
    def test_default_plan_at_benchmark_shapes(self, n, v, d):
        plan = plan_blocks(n, v, d, workers=1)
        assert (plan.n_block, plan.v_block, plan.d_block) == (128, 512, d)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 5000), v=st.integers(1, 70000), d=st.integers(1, 300))
    def test_tiles_never_exceed_extents(self, n, v, d):
        plan = plan_blocks(n, v, d)
        assert 1 <= plan.n_block <= n
        assert 1 <= plan.v_block <= v
        assert 1 <= plan.d_block <= d

    @pytest.mark.parametrize("workers, v_block", [(1, 512), (2, 256), (3, 128),
                                                  (4, 128), (16, 128)])
    def test_workers_split_the_vocab_block(self, workers, v_block):
        """V_B shrinks so that the tiles in flight hold about what one
        serial tile holds, but never below N_B."""
        plan = plan_blocks(1024, 16384, 64, workers=workers)
        assert (plan.n_block, plan.v_block, plan.d_block) == (128, v_block, 64)

    def test_one_token_block_keeps_the_serial_plan(self):
        assert plan_blocks(128, 16384, 64, workers=4) == plan_blocks(128, 16384, 64, workers=1)

    def test_tiles_in_flight(self):
        assert tiles_in_flight(1024, 128, 3) == 3
        assert tiles_in_flight(200, 128, 8) == 2
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count()
        assert tiles_in_flight(200, 128, None) == min(cpus, 2)
        with pytest.raises(ValueError):
            tiles_in_flight(8, 4, 0)
