"""Property tests pinning the tensor codec byte for byte.

The oracles are the earlier per-dtype codec bodies: a three-branch snap,
an encoder and a decoder with their own F32/F16/BF16 branches, and two
bfloat16 helpers. The single narrow/widen pair must reproduce them on any
float64 input (snap), on snapped input (encode, the only input the writer
sees) and on any whole-word byte string (decode).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lewis.checkpoint import DTYPES, _WORDS, Checkpoint, _narrow, _widen


def bf16_to_f64_oracle(raw: bytes) -> np.ndarray:
    u16 = np.frombuffer(raw, dtype="<u2")
    u32 = u16.astype("<u4") << 16
    return u32.view("<f4").astype(np.float64)


def f64_to_bf16_bytes_oracle(values: np.ndarray) -> bytes:
    u = values.astype("<f4").view("<u4")
    nan = ((u & 0x7F800000) == 0x7F800000) & ((u & 0x007FFFFF) != 0)
    rounded = (u + ((u >> 16) & 1) + 0x7FFF) >> 16
    out = np.where(nan, (u >> 16) | 0x0040, rounded)
    return out.astype("<u2").tobytes()


def snap_oracle(values: np.ndarray, dtype: str) -> np.ndarray:
    with np.errstate(over="ignore"):
        if dtype == "F32":
            return values.astype(np.float32).astype(np.float64)
        if dtype == "F16":
            return values.astype(np.float32).astype(np.float16).astype(np.float64)
        narrowed = f64_to_bf16_bytes_oracle(np.ascontiguousarray(values, dtype=np.float64).ravel())
        return bf16_to_f64_oracle(narrowed).reshape(values.shape)


def encode_oracle(values: np.ndarray, dtype: str) -> bytes:
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if dtype == "F32":
        return flat.astype("<f4").tobytes()
    if dtype == "F16":
        return flat.astype("<f2").tobytes()
    return f64_to_bf16_bytes_oracle(flat)


def decode_oracle(raw: bytes, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    if dtype == "F32":
        arr = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    elif dtype == "F16":
        arr = np.frombuffer(raw, dtype="<f2").astype(np.float64)
    else:
        arr = bf16_to_f64_oracle(raw)
    return arr.reshape(shape)


# Values where the rounding rule shows: each dtype's range edges, its
# subnormals, and halfway cases nudged by far less than an F32 ulp, so
# rounding through float32 differs from rounding float64 directly.
_SPECIAL = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308,
    1 + 2**-11 + 2**-40, -(1 + 2**-11 + 2**-40), 1 + 2**-8 + 2**-40, 1 + 2**-24 + 2**-60,
    65504.0, 65519.99, 65520.0, 2.0**-24, 2.0**-25, 3 * 2.0**-26,
    3.4028235e38, 3.4028236e38, 3.3961776e38, 3.3961777e38, 1e39, 2.0**-149, 2.0**-150, 2.0**-133,
]
_DTYPE = st.sampled_from(DTYPES)
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=10)


def _halfway(rng: np.random.Generator, dtype: str, size: int) -> np.ndarray:
    """Midpoints between neighbouring `dtype` values, some nudged off the tie."""
    word = _WORDS[dtype]
    words = rng.integers(0, 2 ** (8 * word.itemsize) - 1, size, dtype=f"<u{word.itemsize}")
    nudge = rng.choice([0.0, 2.0**-30, -(2.0**-30), 2.0**-45, -(2.0**-45)], size)
    with np.errstate(invalid="ignore", over="ignore"):
        lo = decode_oracle(words.tobytes(), dtype, (size,))
        hi = decode_oracle((words + 1).tobytes(), dtype, (size,))
        mid = lo / 2 + hi / 2
        return mid + np.abs(mid) * nudge


@st.composite
def _float64_arrays(draw):
    """Any float64 bit pattern (NaN payloads included), specials and halfway cases."""
    shape = draw(_SHAPES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = int(np.prod(shape))
    pool = np.array(draw(st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats()), min_size=1, max_size=6)))
    sources = np.stack([
        rng.integers(0, 2**64 - 1, size, dtype=np.uint64, endpoint=True).view(np.float64),
        rng.choice(pool, size),
        rng.standard_normal(size) * 10.0 ** rng.integers(-45, 40, size),
        *(_halfway(rng, dtype, size) for dtype in DTYPES),
    ])
    pick = rng.integers(0, len(sources), size)
    return sources[pick, np.arange(size)].reshape(shape)


@settings(max_examples=500, deadline=None)
@given(values=_float64_arrays(), dtype=_DTYPE)
def test_snap_matches_oracle(values, dtype):
    with np.errstate(invalid="ignore"):  # signalling NaNs warn when cast
        got, expected = Checkpoint({"w": values}, dtype)["w"], snap_oracle(values, dtype)
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=500, deadline=None)
@given(values=_float64_arrays(), dtype=_DTYPE)
def test_encode_matches_oracle_on_snapped_values(values, dtype):
    with np.errstate(invalid="ignore"):
        snapped = snap_oracle(values, dtype)
    assert _narrow(snapped, dtype).tobytes() == encode_oracle(snapped, dtype)


@settings(max_examples=500, deadline=None)
@given(dtype=_DTYPE, data=st.data())
def test_decode_matches_oracle_on_any_words(dtype, data):
    itemsize = _WORDS[dtype].itemsize
    lead = data.draw(st.integers(0, 7))  # tensors start at any byte offset in the file
    count = data.draw(st.integers(1, 64))
    raw = data.draw(st.binary(min_size=lead + count * itemsize, max_size=lead + count * itemsize))
    with np.errstate(invalid="ignore"):
        got = _widen(np.frombuffer(raw, _WORDS[dtype], count, lead))
        expected = decode_oracle(raw[lead:], dtype, (count,))
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()
