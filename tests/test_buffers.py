"""The merge's buffer pool: reuse, its cap, and output bytes that do not depend on either."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lewis
import lewis.buffers
import lewis.checkpoint
import lewis.merge_methods
from lewis import Checkpoint, MergeRecipe, merge, write_checkpoint
from lewis.buffers import BufferPool, empty, select
from lewis.task_vectors import MERGE_METHODS
from conftest import pin_machine


def _pool_with_cap(cap: int | None):
    """A BufferPool factory that ignores the cap it is given and uses `cap` (None: no cap)."""
    return lambda _cap: BufferPool(2**62 if cap is None else cap)


class TestBufferPool:
    def test_empty_outside_a_lend_is_plain_numpy(self):
        arr = empty((3, 2), np.float32)
        assert arr.shape == (3, 2) and arr.dtype == np.float32 and arr.flags.owndata

    def test_a_buffer_is_reused_only_once_no_array_uses_it(self):
        pool = BufferPool(1 << 20)
        with pool.lend():
            first = empty((4, 2))
            address = first.ctypes.data
            view = first.reshape(8)[2:]  # a view keeps the buffer in use
            del first
            second = empty((8,), np.int64)
            assert second.ctypes.data != address and pool.held == 128
            del view
            third = empty((2, 4), np.uint16)  # another size: a new buffer
            fourth = empty((16,), np.uint32)  # 64 bytes, like the now idle first buffer
        assert pool.held == 144 and fourth.ctypes.data == address
        assert third.dtype == np.uint16 and fourth.shape == (16,)

    def test_over_the_cap_an_array_is_fresh_and_not_kept(self):
        pool = BufferPool(100)
        with pool.lend():
            kept = empty((8,))
            fresh = empty((8,))
        assert kept.base is not None and fresh.flags.owndata and pool.held == 64

    def test_idle_buffers_are_dropped_to_make_room(self):
        pool = BufferPool(100)
        with pool.lend():
            empty((8,))  # dies at once
            kept = empty((6,), np.int64)
        assert kept.base is not None and pool.held == 48

    def test_threads_sharing_a_pool_never_share_a_live_buffer(self):
        pool = BufferPool(5 * 64)  # too small for every thread: takes also evict and fall back
        failures = []

        def work(tag: float) -> None:
            for i in range(1000):
                with pool.lend():
                    arrays = [empty((8,)), empty((4, 2)), empty((2,) * (1 + i % 3))]
                    for arr in arrays:
                        arr.fill(tag)
                    if any((arr != tag).any() for arr in arrays) or pool.held > pool.cap:
                        failures.append(tag)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(float(t),)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and failures == []

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.uint8, np.uint16])
    def test_select_is_where(self, dtype):
        rng = np.random.default_rng(3)
        a, b = (rng.standard_normal(50) * 100).astype(dtype), (rng.standard_normal(50) * 100).astype(dtype)
        mask = rng.random(50) < 0.5
        assert select(mask, a, b, np.empty_like(a)).tobytes() == np.where(mask, a, b).tobytes()
        assert select(mask, a, None, a.copy()).tobytes() == np.where(mask, a, dtype(0)).tobytes()
        in_b = b.copy()
        assert select(mask, a, in_b, in_b).tobytes() == np.where(mask, a, b).tobytes()


def _write_inputs(tmp_path, tensors: dict, dtypes: dict, models: int, seed: int) -> MergeRecipe:
    base = Checkpoint(tensors, dtypes)
    write_checkpoint(base, tmp_path / "base.safetensors")
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(models):
        fine = {n: base[n] + rng.standard_normal(base[n].shape) for n in base.names()}
        paths.append(tmp_path / f"f{i}.safetensors")
        write_checkpoint(Checkpoint(fine, dtypes), paths[-1])
    return MergeRecipe(
        base_path=str(tmp_path / "base.safetensors"), model_paths=[str(p) for p in paths],
        alphas=[0.7 + 0.2 * i for i in range(models)], plan_refs=0.6, seed=seed,
    )


_SHAPES = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("method", MERGE_METHODS)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    shapes=st.lists(_SHAPES, min_size=1, max_size=6),
    dtypes=st.lists(st.sampled_from(lewis.checkpoint.DTYPES), min_size=6, max_size=6),
    tiny_cap=st.integers(1, 1024),
    seed=st.integers(0, 2**16),
)
def test_bytes_do_not_depend_on_the_pool(tmp_path, monkeypatch, method, workers, shapes, dtypes, tiny_cap, seed):
    """Every buffer fresh (cap 0), constant eviction (a tiny cap) and no cap give one output."""
    rng = np.random.default_rng(seed)
    # Blocks of repeated shapes, so buffers are reused from block to block.
    names = [f"blocks.{i % 3}.mlp.w{i}" for i in range(len(shapes))]
    tensors = {name: rng.standard_normal(shape) for name, shape in zip(names, shapes)}
    recipe = _write_inputs(tmp_path, tensors, dict(zip(names, dtypes)), 3, seed)
    recipe.method = method
    pin_machine(monkeypatch, cores=workers)
    outputs = set()
    for cap in (0, tiny_cap, None):
        monkeypatch.setattr(lewis.merge_methods, "BufferPool", _pool_with_cap(cap))
        monkeypatch.setattr(lewis.checkpoint, "BufferPool", _pool_with_cap(cap))
        write_checkpoint(merge(recipe), tmp_path / "merged.safetensors")
        outputs.add((tmp_path / "merged.safetensors").read_bytes())
    assert len(outputs) == 1


def _toy_recipe(tmp_path, blocks: int) -> MergeRecipe:
    arch = lewis.ArchConfig(hidden_dim=16, num_blocks=blocks, num_heads=2, mlp_dim=32)
    base = lewis.random_checkpoint(arch, seed=5)
    (tmp_path / str(blocks)).mkdir()
    return _write_inputs(tmp_path / str(blocks), base.tensors, "BF16", 2, 6)


@pytest.mark.parametrize("method", ["ties", "dare-linear"])
def test_blocks_of_one_shape_reuse_the_first_blocks_buffers(tmp_path, monkeypatch, method):
    """The pool's allocations do not grow with the number of blocks of one shape."""
    calls = []
    new_buffer = lewis.buffers._new_buffer

    def counting_new_buffer(nbytes):
        calls.append(nbytes)
        return new_buffer(nbytes)

    monkeypatch.setattr(lewis.buffers, "_new_buffer", counting_new_buffer)
    pin_machine(monkeypatch, cores=1)
    counts = []
    for blocks in (2, 8):
        recipe = _toy_recipe(tmp_path, blocks)
        recipe.method = method
        calls.clear()
        merged = merge(recipe)
        write_checkpoint(merged, tmp_path / "merged.safetensors")
        counts.append(len(calls))
    assert counts[0] == counts[1]  # 19 tensors, then 67


def _tensor_bytes(ckpt: Checkpoint) -> dict[str, bytes]:
    return {name: ckpt[name].tobytes() for name in ckpt.names()}


@pytest.mark.parametrize("cores", [1, 4])
def test_pool_holding_never_exceeds_its_cap(tmp_path, monkeypatch, cores):
    recipe = _toy_recipe(tmp_path, 4)
    pin_machine(monkeypatch, cores=cores)
    expected = _tensor_bytes(merge(recipe))
    holdings = []

    class CheckedPool(BufferPool):
        def take(self, shape, dtype):
            arr = super().take(shape, dtype)
            holdings.append((self.held, self.cap))
            return arr

    cap = 4 * 8 * 256 * 16  # four float64 arrays of the 256 x 16 embedding: the pool evicts all along
    monkeypatch.setattr(lewis.merge_methods, "BufferPool", lambda _cap: CheckedPool(cap))
    assert _tensor_bytes(merge(recipe)) == expected
    assert holdings and all(held <= cap for held, cap in holdings)
    assert max(held for held, _ in holdings) > cap // 2
