"""Dense matrix storage, deterministic instance generation, block planning,
and the SCE1 binary matrix file format.

A block plan holds everything that can change an engine call's cost: the
two tile sizes and the worker count the call runs on. The worker count
sets how many tiles the engine holds at once (`tiles_in_flight`), and with
it the default vocabulary block and the memory ceiling; results depend
only on the tile sizes.

All numeric payloads are held in 64-bit floats internally; 32-bit storage is
supported at the file boundary only (widened on load). Every matrix is
stored column-major (F-ordered), so each column, one token's or one
vocabulary entry's D-vector, is contiguous; SCE1 files stay row-major.
Every container in this module is read-only after construction and safe to
share across threads: a `DenseMatrix` keeps a read-only, F-contiguous
float64 array that owns its memory, copies anything else to one, and
refuses non-finite data, whichever way it is built. A kept array is not
copied, so a writable view that the caller made of it before freezing it
still writes through.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "DenseMatrix",
    "TokenSequence",
    "BlockPlan",
    "MatrixFileError",
    "BadMagicError",
    "TruncatedPayloadError",
    "NonFiniteDataError",
    "UnsupportedDtypeError",
    "InvalidPlanError",
    "load_matrix",
    "save_matrix",
    "load_tokens",
    "save_tokens",
    "random_instance",
    "plan_blocks",
    "plan_working_set_bytes",
    "tiles_in_flight",
]


# ---------------------------------------------------------------------------
# errors

class MatrixFileError(Exception):
    """Base class for SCE1 file failures."""


class BadMagicError(MatrixFileError):
    """File does not start with the SCE1 magic bytes."""


class TruncatedPayloadError(MatrixFileError):
    """Header-declared shape does not match the payload byte count."""


class NonFiniteDataError(MatrixFileError):
    """Payload contains NaN or infinite entries."""


class UnsupportedDtypeError(MatrixFileError):
    """Header dtype code is unknown or wrong for the requested container."""


class InvalidPlanError(ValueError):
    """Block plan is unusable for the given matrix extents."""


# ---------------------------------------------------------------------------
# containers

@dataclass(frozen=True)
class DenseMatrix:
    """(rows, cols) matrix of finite reals with 64-bit internal precision.

    Every way of building one ends in `__post_init__`, which holds the one
    rule: a read-only, F-contiguous float64 array that owns its memory is
    kept as it is; any other real data (a writable or C-ordered array, a
    view, another dtype) is copied to an F-ordered float64 array; integer
    extents are required, and other dtypes and non-finite entries are
    refused. So every matrix is column-major, a column is contiguous, and
    the engines read it in place from several threads. A kept array is
    not copied: a writable view the caller made of it before freezing it
    still writes through."""

    rows: int
    cols: int
    data: np.ndarray

    def __post_init__(self):
        for name in ("rows", "cols"):
            size = getattr(self, name)
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {size!r}")
        a = np.asarray(self.data)
        if a.dtype.kind not in "iuf":
            raise ValueError(f"matrix data must be real numbers, got dtype {a.dtype}")
        if a.shape != (self.rows, self.cols):
            raise ValueError(
                f"data shape {a.shape} does not match "
                f"declared {self.rows}x{self.cols}"
            )
        if (a.dtype != np.float64 or a.flags.writeable or not a.flags.owndata
                or not a.flags.f_contiguous):
            a = np.array(a, dtype=np.float64, order="F")
        # min and max propagate NaN and surface +-inf, so the check
        # allocates nothing the size of `a`.
        if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise ValueError("matrix contains non-finite entries")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @classmethod
    def from_array(cls, arr) -> "DenseMatrix":
        """Copy a 2-D array-like into an immutable F-ordered float64 matrix."""
        a = np.array(arr, dtype=np.float64, order="F", copy=True)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
        return cls._wrap(a)

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "DenseMatrix":
        # The zero-copy hand-off of an F-ordered float64 array the caller
        # owns and drops: frozen here, it is kept by the constructor's checks.
        a.setflags(write=False)
        return cls(a.shape[0], a.shape[1], a)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)


@dataclass(frozen=True)
class TokenSequence:
    """Target vocabulary indices, one per token position."""

    targets: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.targets)
        if t.ndim != 1:
            raise ValueError("targets must be one-dimensional")
        if t.size and t.dtype.kind not in "iu":
            raise ValueError(f"targets must have an integer dtype, got {t.dtype}")
        t = t.astype(np.int64, copy=True)
        if t.size and t.min() < 0:
            raise ValueError("negative vocabulary index")
        t.setflags(write=False)
        object.__setattr__(self, "targets", t)

    def __len__(self) -> int:
        return int(self.targets.size)

    def check_vocab(self, vocab_size: int) -> None:
        if self.targets.size and int(self.targets.max()) >= vocab_size:
            raise ValueError(
                f"target index {int(self.targets.max())} out of range "
                f"for vocabulary of size {vocab_size}"
            )


@dataclass(frozen=True)
class BlockPlan:
    """Tile sizes and worker count for one blocked-engine call. The tile
    sizes fix the order of every sum, so results depend on them; the
    worker count (None: every CPU this process may run on at call time)
    sets only the tiles in flight, so for given tile sizes results are
    bit-identical for any count. The count is keyword-only."""

    n_block: int
    v_block: int
    workers: int | None = field(default=None, kw_only=True)

    def __post_init__(self):
        for name in ("n_block", "v_block", "workers"):
            size = getattr(self, name)
            if name == "workers" and size is None:
                continue
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
                raise InvalidPlanError(f"{name} must be an integer, got {size!r}")
            if size < 1:
                raise InvalidPlanError(f"{name} must be >= 1, got {size}")

    def clamped(self, n: int, v: int) -> "BlockPlan":
        """Effective plan for concrete extents: each tile size capped at its
        extent, but never below 1 (an empty batch gets one-token blocks)."""
        return BlockPlan(max(1, min(self.n_block, n)), max(1, min(self.v_block, v)),
                         workers=self.workers)


# ---------------------------------------------------------------------------
# SCE1 file format
#
#   bytes 0-3    magic "SCE1"
#   byte  4      dtype code: 0 = float32, 1 = float64, 2 = uint32 indices
#   bytes 5-7    zero
#   bytes 8-15   rows, unsigned 64-bit little-endian
#   bytes 16-23  cols, unsigned 64-bit little-endian
#   bytes 24-27  zero padding
#   bytes 28..   payload, row-major, little-endian
#
# Token sequences use dtype 2 with cols = 1.

_MAGIC = b"SCE1"
_HEADER = struct.Struct("<4sB3xQQ4x")
_CODE_F32, _CODE_F64, _CODE_U32 = 0, 1, 2
_PAYLOAD_DTYPES = {
    _CODE_F32: np.dtype("<f4"),
    _CODE_F64: np.dtype("<f8"),
    _CODE_U32: np.dtype("<u4"),
}

HEADER_BYTES = _HEADER.size  # 28


# Payload bytes per block that load_matrix and save_matrix stream through,
# so file I/O holds no second copy of the matrix. A block holds at least 8
# rows, so the transposing copy moves whole 64-byte lines of each F-ordered
# column: with 2-row blocks a 128 x 65536 load took twice as long.
_IO_BLOCK_BYTES = 1 << 20
_IO_MIN_ROWS = 8


def _read_header(fh, path) -> tuple[int, int, int]:
    raw = fh.read(HEADER_BYTES)
    if len(raw) < HEADER_BYTES:
        raise TruncatedPayloadError(f"{path}: file shorter than the 28-byte header")
    magic, code, rows, cols = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    if code not in _PAYLOAD_DTYPES:
        raise UnsupportedDtypeError(f"{path}: unknown dtype code {code}")
    return code, rows, cols


def _check_payload_size(fh, code: int, rows: int, cols: int, path) -> np.dtype:
    """The payload dtype, once the file size matches the declared shape."""
    dtype = _PAYLOAD_DTYPES[code]
    expected = rows * cols * dtype.itemsize
    actual = os.fstat(fh.fileno()).st_size - HEADER_BYTES
    if actual != expected:
        raise TruncatedPayloadError(
            f"{path}: payload is {actual} bytes, header declares "
            f"{rows}x{cols} ({expected} bytes)"
        )
    return dtype


def _block_rows(cols: int, itemsize: int) -> int:
    return max(_IO_MIN_ROWS, _IO_BLOCK_BYTES // max(1, cols * itemsize))


def load_matrix(path) -> DenseMatrix:
    """Read an SCE1 float matrix; 32-bit payloads are widened to 64-bit.
    The payload is read a block of rows at a time into the F-ordered
    result, so the peak is the matrix plus one block."""
    with open(path, "rb") as fh:
        code, rows, cols = _read_header(fh, path)
        if code == _CODE_U32:
            raise UnsupportedDtypeError(
                f"{path}: dtype code 2 is a token sequence; use load_tokens"
            )
        dtype = _check_payload_size(fh, code, rows, cols, path)
        out = np.empty((rows, cols), order="F")
        step = _block_rows(cols, dtype.itemsize)
        buf = np.empty(min(step, rows) * cols, dtype=dtype)
        for r0 in range(0, rows, step):
            r1 = min(r0 + step, rows)
            block = buf[:(r1 - r0) * cols]
            if fh.readinto(block) != block.nbytes:
                raise TruncatedPayloadError(f"{path}: payload ended early")
            out[r0:r1] = block.reshape(r1 - r0, cols)
    try:
        return DenseMatrix._wrap(out)
    except ValueError as exc:  # the shape and dtype hold, so it is finiteness
        raise NonFiniteDataError(f"{path}: payload contains non-finite entries") from exc


def save_matrix(m: DenseMatrix, path, dtype: str = "f64") -> None:
    """Write a matrix in SCE1 format; load_matrix(save_matrix(m)) is
    bit-identical for f64, and value-exact for values representable in f32.
    Rows go out a block at a time through one buffer."""
    codes = {"f64": _CODE_F64, "f32": _CODE_F32}
    if dtype not in codes:
        raise ValueError(f"unsupported save dtype {dtype!r}")
    code = codes[dtype]
    if code == _CODE_F32 and m.data.size:  # before the path is opened
        with np.errstate(over="ignore"):
            if np.isinf(np.float32([m.data.min(), m.data.max()])).any():
                raise ValueError(f"{path}: values beyond float32 range cannot be saved as f32")
    step = _block_rows(m.cols, _PAYLOAD_DTYPES[code].itemsize)
    buf = np.empty(min(step, m.rows) * m.cols, dtype=_PAYLOAD_DTYPES[code])
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, code, m.rows, m.cols))
        for r0 in range(0, m.rows, step):
            part = m.data[r0:r0 + step]
            block = buf[:part.size].reshape(part.shape)
            np.copyto(block, part, casting="same_kind")
            fh.write(block)


def load_tokens(path) -> TokenSequence:
    """Read an SCE1 token sequence (dtype 2, single column)."""
    with open(path, "rb") as fh:
        code, rows, cols = _read_header(fh, path)
        if code != _CODE_U32:
            raise UnsupportedDtypeError(
                f"{path}: dtype code {code} is a float matrix; use load_matrix"
            )
        if cols != 1:
            raise UnsupportedDtypeError(f"{path}: token sequences require cols=1, got {cols}")
        dtype = _check_payload_size(fh, code, rows, cols, path)
        values = np.frombuffer(fh.read(), dtype=dtype)
    return TokenSequence(values)


def save_tokens(x: TokenSequence, path) -> None:
    header = _HEADER.pack(_MAGIC, _CODE_U32, len(x), 1)
    payload = x.targets.astype("<u4")
    if not np.array_equal(payload, x.targets):
        raise ValueError("token indices do not fit in 32 bits")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


# ---------------------------------------------------------------------------
# deterministic instance generation
#
# splitmix64, addressed by counter: the value at position k of a stream with
# seed s mixes the state s + (k+1) * GAMMA. Counter addressing makes the
# generator a pure function of (seed, k), reproducible across languages.

_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """Return `count` raw 64-bit words of the splitmix64 stream for `seed`,
    beginning at counter `start`."""
    return _splitmix64_at(seed, np.arange(start, start + count, dtype=np.uint64))


def _splitmix64_at(seed: int, counters: np.ndarray, *, out=None,
                   scratch=None) -> np.ndarray:
    """The splitmix64 words of stream `seed` at the given uint64 counters,
    in their shape. They go to `out` (which may be `counters`); `scratch`,
    a uint64 array of the same shape, holds the shifted words. Both are
    allocated when not given."""
    z = np.add(counters, np.uint64(1), out=out)
    z *= _SM64_GAMMA
    z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    shifted = np.empty_like(z) if scratch is None else scratch
    for shift, mix in ((30, _SM64_MIX1), (27, _SM64_MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        if mix is not None:
            z *= mix
    return z


def _uniform01(bits: np.ndarray, out=None) -> np.ndarray:
    # (0, 1) strictly: top 53 bits plus a half-ulp offset, so the inverse CDF
    # below never sees 0 or 1. Shifts `bits` in place.
    bits >>= np.uint64(11)
    u = np.empty(bits.shape) if out is None else out
    np.copyto(u, bits)
    u += 0.5
    u *= 2.0 ** -53
    return u


# Rational approximation of the standard normal inverse CDF (Acklam's
# coefficients; relative error below 1.15e-9 over (0, 1)).
_ICDF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
           1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ICDF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
           6.680131188771972e+01, -1.328068155288572e+01, 1.0)
_ICDF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
           -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ICDF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
           3.754408661907416e+00, 1.0)
_ICDF_P_LOW = 0.02425


def _horner(coefs, x: np.ndarray, out=None) -> np.ndarray:
    """(...(coefs[0] x + coefs[1]) x + ...) x + coefs[-1], into `out`."""
    out = np.multiply(x, coefs[0], out=out)
    for coef in coefs[1:-1]:
        out += coef
        out *= x
    out += coefs[-1]
    return out


def normal_icdf(u: np.ndarray, *, out=None, scratch=None) -> np.ndarray:
    """Standard normal quantile function, vectorized, for u in (0, 1).

    The result goes to `out`; `scratch` is three float64 arrays shaped like
    `u` for the central branch's terms. Both are allocated when not given.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u) if out is None else out
    q, r, den = (np.empty_like(u) for _ in range(3)) if scratch is None else scratch

    # The central branch runs over every entry, since the tails are rare
    # and cheaper to overwrite than to pack out.
    np.subtract(u, 0.5, out=q)
    np.multiply(q, q, out=r)
    _horner(_ICDF_A, r, out)
    _horner(_ICDF_B, r, den)
    out *= q
    out /= den

    lo = u < _ICDF_P_LOW
    hi = u > 1.0 - _ICDF_P_LOW
    for mask, sign, p in ((lo, 1.0, u[lo]), (hi, -1.0, 1.0 - u[hi])):
        if mask.any():
            t = np.sqrt(-2.0 * np.log(p))
            out[mask] = sign * _horner(_ICDF_C, t) / _horner(_ICDF_D, t)

    return out


def random_instance(seed: int, n: int, v: int, d: int, scale: float):
    """Deterministic benchmark/test instance.

    Returns (E, C, x): a D x N embedding matrix, a D x |V| classifier, and N
    uniform targets. Entries of E and C are i.i.d. normal with standard
    deviation `scale`, which must be finite and positive; everything is a
    pure function of the arguments.
    """
    if n < 1 or v < 1 or d < 1:
        raise ValueError("n, v, d must all be >= 1")
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be finite and positive, got {scale}")
    e = _gaussian_f(seed, 0, d, n, scale)
    c = _gaussian_f(seed, d * n, d, v, scale)
    u = _uniform01(splitmix64(seed, d * (n + v), n))
    targets = np.minimum((u * v).astype(np.int64), v - 1)
    return (DenseMatrix._wrap(e), DenseMatrix._wrap(c), TokenSequence(targets))


# Values per generation chunk. A chunk's counters, words, uniforms and
# inverse-CDF terms live in six scratch arrays of this length, which with
# the counters' row and column offsets come to at most 1 MiB: small enough
# to stay in cache.
_GEN_CHUNK = 16384


def _gaussian_f(seed: int, start: int, rows: int, cols: int, scale: float) -> np.ndarray:
    """F-ordered rows x cols normal draws whose entry (r, k) comes from
    counter start + r * cols + k, the row-major position.

    The output is filled in memory order, _GEN_CHUNK values at a time:
    whole columns while one fits in a chunk, else one column in pieces.
    Each value keeps its counter and its arithmetic, so the result does not
    depend on the chunking.
    """
    out = np.empty((rows, cols), order="F")
    by_column = out.T  # C-contiguous; row k is column k of out
    seg = min(rows, _GEN_CHUNK)
    per = max(1, _GEN_CHUNK // rows)
    iota = np.arange(per, dtype=np.uint64)[:, None]
    scratch = ([np.empty(_GEN_CHUNK, np.uint64) for _ in range(2)]
               + [np.empty(_GEN_CHUNK) for _ in range(4)])
    for r0 in range(0, rows, seg):
        r1 = min(r0 + seg, rows)
        # counters of rows r0..r1-1 in the chunk's first column
        base = np.arange(r0, r1, dtype=np.uint64) * np.uint64(cols) + np.uint64(start)
        for k0 in range(0, cols, per):
            shape = (min(per, cols - k0), r1 - r0)
            bits, shifted, u, q, r, den = (buf[:shape[0] * shape[1]].reshape(shape)
                                           for buf in scratch)
            np.add(base, iota[:shape[0]], out=bits)
            _splitmix64_at(seed, bits, out=bits, scratch=shifted)
            dest = by_column[k0:k0 + shape[0], r0:r1]
            normal_icdf(_uniform01(bits, out=u), out=dest, scratch=(q, r, den))
            dest *= scale
            base += np.uint64(per)
    return out


# ---------------------------------------------------------------------------
# block planning

# Default tile sizes (N_B, V_B) before clamping: BLAS-friendly tiles whose
# one-tile working set is 525 312 bytes.
_BASE_BLOCKS = (128, 512)

_WORD = 8  # engine buffers are float64


def plan_working_set_bytes(plan: BlockPlan) -> int:
    """Transient bytes the blocked engine needs for one in-flight tile:
    the V_B x N_B logit tile and the forward's one N_B scratch row for the
    online softmax merge. The backward adds its products straight into the
    gradients."""
    nb, vb = plan.n_block, plan.v_block
    return _WORD * nb * (vb + 1)


def tiles_in_flight(n: int, n_block: int, workers: int | None = None) -> int:
    """Tiles the blocked engine holds at once: one per worker thread, with
    no more workers than token blocks. `workers=None` means every CPU this
    process may run on."""
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, -(-n // n_block))


def plan_blocks(
    n: int,
    v: int,
    d: int,
    n_block: int | None = None,
    v_block: int | None = None,
    d_block: int | None = None,
    workers: int | None = None,
) -> BlockPlan:
    """Plan an N-token, |V|-vocabulary, D-dimensional instance run on
    `workers` threads (None: every available CPU at call time); the plan
    carries that count to the engine.

    Defaults are clamped to the extents. Then V_B is halved, down to N_B,
    until the logit tiles of all tiles in flight fit that of one serial
    tile, so more workers do not multiply the working set. Explicit
    overrides are clamped but never shrunk. An empty batch (n = 0) gets
    one-token blocks.

    `d_block` is accepted and ignored: every backward product runs at full
    depth. It stays only because `bench/test_bench.py` still passes it; the
    first change allowed to edit `bench/` (ROADMAP item 1) drops both.
    """
    if n < 0 or v < 1 or d < 1:
        raise ValueError(f"need n >= 0 and v, d >= 1, got n={n}, v={v}, d={d}")
    plan = BlockPlan(_BASE_BLOCKS[0] if n_block is None else n_block,
                     _BASE_BLOCKS[1] if v_block is None else v_block,
                     workers=workers).clamped(n, v)
    nb, vb = plan.n_block, plan.v_block
    if n_block is None and v_block is None:
        in_flight, serial_vb = tiles_in_flight(n, nb, workers), vb
        while vb // 2 >= nb and in_flight * vb > serial_vb:
            vb //= 2
    return replace(plan, v_block=vb)
