"""Dense matrix storage, deterministic instance generation, block planning,
and the SCE1 binary matrix file format.

A block plan holds only what can change a cost: the three tile sizes. The
default plan depends on how many tiles the engine holds at once
(`tiles_in_flight`), which depends on the worker count.

All numeric payloads are held in 64-bit floats internally; 32-bit storage is
supported at the file boundary only (widened on load). Matrices are stored
column-major (F-ordered), so each column, one token's or one vocabulary
entry's D-vector, is contiguous; SCE1 files stay row-major. Every container
in this module is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

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
    """(rows, cols) matrix of reals with 64-bit internal precision. The
    matrices this module builds store it column-major (F-ordered), so that
    a column is contiguous; the engines accept either order."""

    rows: int
    cols: int
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != (self.rows, self.cols):
            raise ValueError(
                f"data shape {self.data.shape} does not match "
                f"declared {self.rows}x{self.cols}"
            )

    @classmethod
    def from_array(cls, arr, require_finite: bool = True) -> "DenseMatrix":
        """Copy a 2-D array-like into an immutable F-ordered float64 matrix."""
        a = np.array(arr, dtype=np.float64, order="F", copy=True)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
        return cls._wrap(a, require_finite=require_finite)

    @classmethod
    def _wrap(cls, a: np.ndarray, require_finite: bool = True) -> "DenseMatrix":
        # Takes ownership of `a`; no copy. min and max propagate NaN and
        # surface +-inf, so the check allocates nothing the size of `a`.
        if require_finite and a.size and not (np.isfinite(a.min())
                                              and np.isfinite(a.max())):
            raise ValueError("matrix contains non-finite entries")
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
    """Tile sizes for the blocked engine. They fix the order of every sum,
    so results depend on them but never on the worker count."""

    n_block: int
    v_block: int
    d_block: int

    def clamped(self, n: int, v: int, d: int) -> "BlockPlan":
        """Effective plan for concrete extents; rejects non-positive sizes."""
        for name, size in (("n_block", self.n_block),
                           ("v_block", self.v_block),
                           ("d_block", self.d_block)):
            if size < 1:
                raise InvalidPlanError(f"{name} must be >= 1, got {size}")
        return BlockPlan(min(self.n_block, n), min(self.v_block, v),
                         min(self.d_block, d))


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


def _read_header(raw: bytes, path) -> tuple[int, int, int]:
    if len(raw) < HEADER_BYTES:
        raise TruncatedPayloadError(f"{path}: file shorter than the 28-byte header")
    magic, code, rows, cols = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    if code not in _PAYLOAD_DTYPES:
        raise UnsupportedDtypeError(f"{path}: unknown dtype code {code}")
    return code, rows, cols


def _read_payload(raw: bytes, code: int, rows: int, cols: int, path) -> np.ndarray:
    dtype = _PAYLOAD_DTYPES[code]
    expected = rows * cols * dtype.itemsize
    actual = len(raw) - HEADER_BYTES
    if actual != expected:
        raise TruncatedPayloadError(
            f"{path}: payload is {actual} bytes, header declares "
            f"{rows}x{cols} ({expected} bytes)"
        )
    return np.frombuffer(raw, dtype=dtype, offset=HEADER_BYTES).reshape(rows, cols)


def load_matrix(path) -> DenseMatrix:
    """Read an SCE1 float matrix; 32-bit payloads are widened to 64-bit."""
    with open(path, "rb") as fh:
        raw = fh.read()
    code, rows, cols = _read_header(raw, path)
    if code == _CODE_U32:
        raise UnsupportedDtypeError(
            f"{path}: dtype code 2 is a token sequence; use load_tokens"
        )
    values = _read_payload(raw, code, rows, cols, path)
    out = values.astype(np.float64, order="F", copy=True)
    if not np.isfinite(out).all():
        raise NonFiniteDataError(f"{path}: payload contains non-finite entries")
    return DenseMatrix._wrap(out, require_finite=False)


def save_matrix(m: DenseMatrix, path, dtype: str = "f64") -> None:
    """Write a matrix in SCE1 format; load_matrix(save_matrix(m)) is
    bit-identical for f64, and value-exact for values representable in f32."""
    if dtype == "f64":
        code, payload = _CODE_F64, m.data.astype("<f8", copy=False)
    elif dtype == "f32":
        code, payload = _CODE_F32, m.data.astype("<f4")
    else:
        raise ValueError(f"unsupported save dtype {dtype!r}")
    header = _HEADER.pack(_MAGIC, code, m.rows, m.cols)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(payload).tobytes())


def load_tokens(path) -> TokenSequence:
    """Read an SCE1 token sequence (dtype 2, single column)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    code, rows, cols = _read_header(raw, path)
    if code != _CODE_U32:
        raise UnsupportedDtypeError(
            f"{path}: dtype code {code} is a float matrix; use load_matrix"
        )
    if cols != 1:
        raise UnsupportedDtypeError(f"{path}: token sequences require cols=1, got {cols}")
    values = _read_payload(raw, code, rows, cols, path)
    return TokenSequence(values.reshape(-1).astype(np.int64))


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


def _splitmix64_at(seed: int, counters: np.ndarray) -> np.ndarray:
    """The splitmix64 words of stream `seed` at the given uint64 counters,
    in their shape."""
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (counters + np.uint64(1)) * _SM64_GAMMA
    z = z ^ (z >> np.uint64(30))
    z = z * _SM64_MIX1
    z = z ^ (z >> np.uint64(27))
    z = z * _SM64_MIX2
    z = z ^ (z >> np.uint64(31))
    return z


def _uniform01(bits: np.ndarray) -> np.ndarray:
    # (0, 1) strictly: top 53 bits plus a half-ulp offset, so the inverse CDF
    # below never sees 0 or 1.
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


# Rational approximation of the standard normal inverse CDF (Acklam's
# coefficients; relative error below 1.15e-9 over (0, 1)).
_ICDF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
           1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ICDF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
           6.680131188771972e+01, -1.328068155288572e+01)
_ICDF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
           -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ICDF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
           3.754408661907416e+00)
_ICDF_P_LOW = 0.02425


def normal_icdf(u: np.ndarray) -> np.ndarray:
    """Standard normal quantile function, vectorized, for u in (0, 1)."""
    u = np.asarray(u, dtype=np.float64)
    a, b, c, d = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D
    out = np.empty_like(u)

    lo = u < _ICDF_P_LOW
    hi = u > 1.0 - _ICDF_P_LOW
    mid = ~(lo | hi)

    if mid.any():
        q = u[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        out[mid] = num * q / den

    for mask, sign, p in ((lo, 1.0, u[lo]), (hi, -1.0, 1.0 - u[hi])):
        if mask.any():
            q = np.sqrt(-2.0 * np.log(p))
            num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
            den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
            out[mask] = sign * num / den

    return out


def random_instance(seed: int, n: int, v: int, d: int, scale: float):
    """Deterministic benchmark/test instance.

    Returns (E, C, x): a D x N embedding matrix, a D x |V| classifier, and N
    uniform targets. Entries of E and C are i.i.d. normal with standard
    deviation `scale`; everything is a pure function of the arguments.
    """
    if n < 1 or v < 1 or d < 1:
        raise ValueError("n, v, d must all be >= 1")
    if not scale > 0:
        raise ValueError("scale must be positive")
    e = _gaussian_f(seed, 0, d, n, scale)
    c = _gaussian_f(seed, d * n, d, v, scale)
    u = _uniform01(splitmix64(seed, d * (n + v), n))
    targets = np.minimum((u * v).astype(np.int64), v - 1)
    return (DenseMatrix._wrap(e), DenseMatrix._wrap(c), TokenSequence(targets))


def _gaussian_f(seed: int, start: int, rows: int, cols: int, scale: float) -> np.ndarray:
    """F-ordered rows x cols normal draws whose entry (r, k) comes from
    counter start + r * cols + k, the row-major position, filled in memory
    order so that no transposing copy is made."""
    counters = (np.arange(rows, dtype=np.uint64) * np.uint64(cols)
                + np.arange(cols, dtype=np.uint64)[:, None] + np.uint64(start))
    return (normal_icdf(_uniform01(_splitmix64_at(seed, counters))) * scale).T


# ---------------------------------------------------------------------------
# block planning

# Default tile sizes (N_B, V_B) before clamping: BLAS-friendly tiles whose
# one-tile working set is 528 384 bytes. D_B defaults to the full depth D.
_BASE_BLOCKS = (128, 512)

_WORD = 8  # engine buffers are float64


def plan_working_set_bytes(plan: BlockPlan) -> int:
    """Transient bytes the blocked engine needs for one in-flight tile:
    the V_B x N_B logit tile and the forward's four N_B scratch rows for the
    LSE merge. The backward adds its products straight into the gradients,
    so D_B does not enter."""
    nb, vb = plan.n_block, plan.v_block
    return _WORD * (nb * vb + 4 * nb)


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
    """Choose tile sizes for an N-token, |V|-vocabulary, D-dimensional
    instance run on `workers` threads (None: every available CPU).

    Defaults are clamped to the extents; D_B defaults to D, one product
    per backward tile and gradient, and an override splits the products'
    rows. Then V_B is halved, down to N_B, until the logit tiles of all
    tiles in flight fit that of one serial tile, so more workers do not
    multiply the working set. Explicit overrides are clamped but never
    shrunk.
    """
    if n < 1 or v < 1 or d < 1:
        raise ValueError("matrix extents must be >= 1")
    overrides = (n_block, v_block, d_block)
    for name, val in zip(("n_block", "v_block", "d_block"), overrides):
        if val is not None and val < 1:
            raise InvalidPlanError(f"{name} override must be >= 1, got {val}")

    nb = min(n_block if n_block is not None else _BASE_BLOCKS[0], n)
    vb = min(v_block if v_block is not None else _BASE_BLOCKS[1], v)
    db = min(d_block if d_block is not None else d, d)

    if all(o is None for o in overrides):
        in_flight, serial_vb = tiles_in_flight(n, nb, workers), vb
        while vb // 2 >= nb and in_flight * vb > serial_vb:
            vb //= 2

    return BlockPlan(nb, vb, db)
