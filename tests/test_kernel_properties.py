"""Property tests pinning the prune/combine kernels bit for bit.

The oracles are the earlier, straightforward kernel bodies: a full stable
argsort for the trim, an `np.where` sign election for TIES and a masked
fancy-index assignment for the drop. The kernels must reproduce them
byte for byte on any input, NaN, infinities, signed zeros, subnormals and
magnitude ties included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lewis import magnitude_trim, random_drop_rescale, ties_combine
from lewis.pruning import _check_density, _stream, trim_count


def trim_argsort_oracle(values: np.ndarray, density: float) -> np.ndarray:
    density = _check_density(density)
    flat = np.asarray(values).ravel()
    k = trim_count(density, flat.size)
    if k == flat.size:
        return np.array(values, copy=True)
    order = np.argsort(-np.abs(flat), kind="stable")
    out = np.zeros_like(flat)
    keep = order[:k]
    out[keep] = flat[keep]
    return out.reshape(np.asarray(values).shape)


def ties_where_oracle(stack: np.ndarray) -> np.ndarray:
    pos = np.where(stack > 0, stack, 0.0).sum(axis=0)
    neg = np.where(stack < 0, -stack, 0.0).sum(axis=0)
    sign = np.where(pos >= neg, 1.0, -1.0)
    agree = (stack * sign) > 0
    count = agree.sum(axis=0)
    total = np.where(agree, stack, 0.0).sum(axis=0)
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def drop_fancy_index_oracle(values: np.ndarray, density: float, seed: int, name: str = "") -> np.ndarray:
    density = _check_density(density)
    arr = np.asarray(values)
    if density == 1.0:
        return np.array(arr, copy=True)
    uniforms = _stream(seed, name).random(arr.size)
    keep = (uniforms < density).reshape(arr.shape)
    out = np.zeros_like(arr)
    out[keep] = arr[keep] / density
    return out


# Each array mixes distinct normal draws with picks from a small pool of
# drawn floats; the pool brings repeated magnitudes and, through the
# specials and the open float range, NaN, infinities, signed zeros and
# subnormals.
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1e308, -1e308]
_ELEMENTS = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_subnormal=True), st.integers(-3, 3).map(float))
_DTYPES = st.sampled_from([np.float64, np.float32, np.float16])
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12)
_DENSITIES = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.sampled_from([1.0, 0.5, 1e-9]),
)


@st.composite
def _arrays(draw, models=None):
    shape = draw(_SHAPES)
    if models is not None:
        shape = (draw(models),) + shape
    pool = np.array(draw(st.lists(_ELEMENTS, min_size=1, max_size=8)))
    normal_frac = draw(st.sampled_from([0.0, 0.3, 1.0]))
    nan_frac = draw(st.sampled_from([0.0, 0.0, 0.5, 0.9]))  # NaN-heavy: trim keeps NaNs too
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.where(rng.random(shape) < normal_frac, rng.standard_normal(shape), rng.choice(pool, shape))
    values[rng.random(shape) < nan_frac] = np.nan
    with np.errstate(over="ignore"):
        return values.astype(draw(_DTYPES))


def _same_bytes(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=400, deadline=None)
@given(values=_arrays(), density=_DENSITIES)
def test_trim_matches_argsort_oracle(values, density):
    _same_bytes(magnitude_trim(values, density), trim_argsort_oracle(values, density))


@settings(max_examples=400, deadline=None)
@given(stack=_arrays(models=st.integers(1, 8)))
def test_ties_combine_matches_where_oracle(stack):
    # The kernel takes the (models, ...) array perfbench hands it and the list
    # of deltas `merge` hands it. Its sums run in model order. So do the
    # oracle's `.sum(axis=0)`, except where a row holds one element: numpy then
    # reduces that axis alone, pairwise from 8 rows and in float32 for float16.
    # A second, equal column keeps every row longer than one element.
    with np.errstate(all="ignore"):
        expected = ties_where_oracle(np.stack([stack, stack], axis=-1))[..., 0]
        _same_bytes(ties_combine(stack), expected)
        _same_bytes(ties_combine(list(stack)), expected)


def test_ties_combine_counts_past_255_models():
    # The counts take the smallest unsigned type that holds the model count:
    # uint8 would wrap the 290 agreeing entries of one element here to 34.
    rng = np.random.default_rng(300)
    stack = rng.integers(1, 4, size=(300, 1)).astype(np.float64)
    stack[rng.choice(300, size=10, replace=False)] *= -1.0
    expected = ties_where_oracle(np.stack([stack, stack], axis=-1))[..., 0]
    _same_bytes(ties_combine(stack), expected)
    _same_bytes(ties_combine(list(stack)), expected)


@settings(max_examples=400, deadline=None)
@given(
    values=_arrays(),
    density=_DENSITIES,
    seed=st.integers(-(2**70), 2**70),
    name=st.text(max_size=12),
)
def test_drop_matches_fancy_index_oracle(values, density, seed, name):
    # A density whose rescale overflows in the array's dtype (1e-9 rounds to 0
    # in float16) is rejected; the oracle would divide by zero.
    with np.errstate(divide="ignore", over="ignore"):
        rescale = values.dtype.type(1.0) / values.dtype.type(density)
    if not np.isfinite(rescale):
        with pytest.raises(ValueError, match="density"):
            random_drop_rescale(values, density, seed, name)
        return
    with np.errstate(all="ignore"):
        expected = drop_fancy_index_oracle(values, density, seed, name)
    # A finite survivor that overflows when rescaled is rejected.
    if np.any(np.isinf(expected) & np.isfinite(values)):
        with pytest.raises(ValueError, match="overflows"):
            random_drop_rescale(values, density, seed, name)
        return
    _same_bytes(random_drop_rescale(values, density, seed, name), expected)
