"""The merge's scratch blocks: stack reuse, the pool's cap, and output bytes that do not depend on either."""

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
from lewis.buffers import Block, BlockPool, empty, frame, select
from lewis.task_vectors import MERGE_METHODS
from conftest import pin_machine


def _pool_with_cap(cap: int | None):
    """A BlockPool factory that ignores the cap it is given and uses `cap` (None: no cap)."""
    return lambda _cap: BlockPool(2**62 if cap is None else cap)


class TestBufferPool:
    """Blocks, their frames and their pool."""

    def test_empty_outside_a_lend_is_plain_numpy(self):
        arr = empty((3, 2), np.float32)
        assert arr.shape == (3, 2) and arr.dtype == np.float32 and arr.flags.owndata

    def test_a_piece_is_reused_only_after_its_frame_ends(self):
        block = Block(1024)
        with block.lent():
            first = empty((4, 2))
            with frame():
                inner = empty((3,), np.uint16)
                address = inner.ctypes.data
                assert address != first.ctypes.data and address % 64 == 0
            again = empty((2, 4), np.int64)  # the inner piece, given back
            reused = first.base is not None and again.ctypes.data == address
        assert reused and block.top == 0 and empty((1,)).flags.owndata
        assert again.dtype == np.int64 and again.shape == (2, 4)

    def test_a_take_past_the_end_is_fresh(self, monkeypatch):
        fresh = []
        overflow = lewis.buffers._overflow
        monkeypatch.setattr(lewis.buffers, "_overflow", lambda shape, dtype: fresh.append(shape) or overflow(shape, dtype))
        block = Block(100)
        with block.lent():
            inside, past = empty((8,)), empty((8,))
        assert inside.base is not None and past.flags.owndata and fresh == [(8,)]

    def test_over_the_cap_a_block_is_fresh_and_not_kept(self):
        pool = BlockPool(100)
        with pool.lend(64) as kept, pool.lend(64) as fresh:
            assert kept.kept and not fresh.kept and pool.held == 64
        with pool.lend(64) as again:
            assert again is kept

    def test_idle_blocks_are_dropped_to_make_room(self):
        pool = BlockPool(100)
        with pool.lend(64):
            pass
        with pool.lend(48) as block:
            assert block.kept and pool.held == 48

    def test_a_thread_gets_back_the_block_it_used_last(self):
        pool = BlockPool(1000)
        barrier = threading.Barrier(2)
        used: dict[str, list[Block]] = {"a": [], "b": []}

        def work(tag: str) -> None:
            for _ in range(3):
                with pool.lend(64) as block:
                    used[tag].append(block)
                    barrier.wait(timeout=10)  # both hold a block at once

        threads = [threading.Thread(target=work, args=(tag,)) for tag in used]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads) and pool.held == 128
        for blocks in used.values():
            assert blocks[0] is blocks[1] is blocks[2]
        assert used["a"][0] is not used["b"][0]

    def test_threads_sharing_a_pool_never_share_a_live_block(self):
        pool = BlockPool(5 * 256)  # too small for every thread: lends also evict and make fresh blocks
        failures = []

        def work(tag: float) -> None:
            for i in range(1000):
                with pool.lend(256 if i % 2 else 192):
                    arrays = [empty((8,)), empty((4, 2))]
                    with frame():
                        arrays.append(empty((2,) * (1 + i % 3)))
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
    tiny_cap=st.integers(1, 4096),
    seed=st.integers(0, 2**16),
)
def test_bytes_do_not_depend_on_the_pool(tmp_path, monkeypatch, method, workers, shapes, dtypes, tiny_cap, seed):
    """Every block fresh (cap 0), constant eviction (a tiny cap) and no cap give one output."""
    rng = np.random.default_rng(seed)
    # Blocks of repeated shapes, so scratch blocks are reused from block to block.
    names = [f"blocks.{i % 3}.mlp.w{i}" for i in range(len(shapes))]
    tensors = {name: rng.standard_normal(shape) for name, shape in zip(names, shapes)}
    recipe = _write_inputs(tmp_path, tensors, dict(zip(names, dtypes)), 3, seed)
    recipe.method = method
    pin_machine(monkeypatch, cores=workers)
    outputs = set()
    for cap in (0, tiny_cap, None):
        monkeypatch.setattr(lewis.merge_methods, "BlockPool", _pool_with_cap(cap))
        write_checkpoint(merge(recipe), tmp_path / "merged.safetensors")
        outputs.add((tmp_path / "merged.safetensors").read_bytes())
    assert len(outputs) == 1


def _toy_recipe(tmp_path, blocks: int, dtype: str = "BF16", models: int = 2) -> MergeRecipe:
    arch = lewis.ArchConfig(hidden_dim=16, num_blocks=blocks, num_heads=2, mlp_dim=32)
    base = lewis.random_checkpoint(arch, seed=5)
    (tmp_path / str(blocks)).mkdir(exist_ok=True)
    return _write_inputs(tmp_path / str(blocks), base.tensors, dtype, models, 6)


@pytest.mark.parametrize("method", ["ties", "dare-linear"])
def test_blocks_of_one_shape_reuse_the_first_blocks_buffers(tmp_path, monkeypatch, method):
    """Block allocations do not grow with the number of transformer blocks of one shape."""
    calls = []
    new_block = lewis.buffers._new_block

    def counting_new_block(nbytes):
        calls.append(nbytes)
        return new_block(nbytes)

    monkeypatch.setattr(lewis.buffers, "_new_block", counting_new_block)
    pin_machine(monkeypatch, cores=1)
    counts = []
    for blocks in (2, 8):
        recipe = _toy_recipe(tmp_path, blocks)
        recipe.method = method
        calls.clear()
        merged = merge(recipe)
        write_checkpoint(merged, tmp_path / "merged.safetensors")
        counts.append(len(calls))
    assert counts[0] == counts[1]  # one block for every run, and the writer's: 19 tensors, then 67


@pytest.mark.parametrize("models", [1, 3])
@pytest.mark.parametrize("dtype", lewis.checkpoint.DTYPES)
@pytest.mark.parametrize("method", MERGE_METHODS)
def test_a_tensor_fits_in_its_block(tmp_path, monkeypatch, method, dtype, models):
    """The block layout in merge_methods holds every array a run's merge and a tensor's write make."""
    fresh = []
    overflow = lewis.buffers._overflow
    monkeypatch.setattr(lewis.buffers, "_overflow", lambda shape, dtype: fresh.append(shape) or overflow(shape, dtype))
    recipe = _toy_recipe(tmp_path, 2, dtype, models)
    recipe.method = method
    write_checkpoint(merge(recipe), tmp_path / "merged.safetensors")
    assert fresh == []


def _tensor_bytes(ckpt: Checkpoint) -> dict[str, bytes]:
    return {name: ckpt[name].tobytes() for name in ckpt.names()}


@pytest.mark.parametrize("cores", [1, 4])
def test_pool_holding_never_exceeds_its_cap(tmp_path, monkeypatch, cores):
    recipe = _toy_recipe(tmp_path, 4)
    pin_machine(monkeypatch, cores=cores)
    expected = _tensor_bytes(merge(recipe))
    holdings = []

    class CheckedPool(BlockPool):
        def _take(self, nbytes):
            block = super()._take(nbytes)
            holdings.append((self.held, self.cap))
            return block

    # Half again the block of the 256 x 16 embedding, which every run gets (43 bytes
    # an element for ties of two models): the pool evicts all along.
    cap = 3 * 43 * 256 * 16 // 2
    monkeypatch.setattr(lewis.merge_methods, "BlockPool", lambda _cap: CheckedPool(cap))
    assert _tensor_bytes(merge(recipe)) == expected
    assert holdings and all(held <= cap for held, cap in holdings)
    assert max(held for held, _ in holdings) > cap // 2
