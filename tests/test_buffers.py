"""The merge's scratch blocks: stack reuse, one block per worker, and output bytes that do not depend on their contents."""

import contextlib
import sys
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lewis
import lewis.buffers
import lewis.checkpoint
import lewis.merge_methods
from lewis import Checkpoint, MergeRecipe, merge, write_checkpoint
from lewis.buffers import Block, empty, frame, select
from lewis.task_vectors import MERGE_METHODS
from conftest import pin_machine


class TestBufferPool:
    """Blocks and their frames."""

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
    seed=st.integers(0, 2**16),
)
def test_bytes_do_not_depend_on_scratch_contents(tmp_path, monkeypatch, method, workers, shapes, dtypes, seed):
    """Blocks made of zeros, of all-ones bits (NaN words), of 0x7F or as np.empty leaves them
    give one output: no kernel reads scratch it did not write."""
    rng = np.random.default_rng(seed)
    # Blocks of repeated shapes, so scratch blocks are reused from block to block.
    names = [f"blocks.{i % 3}.mlp.w{i}" for i in range(len(shapes))]
    tensors = {name: rng.standard_normal(shape) for name, shape in zip(names, shapes)}
    recipe = _write_inputs(tmp_path, tensors, dict(zip(names, dtypes)), 3, seed)
    recipe.method = method
    pin_machine(monkeypatch, cores=workers)
    outputs = set()
    new_block = lewis.buffers._new_block
    for fill in (None, 0x00, 0xFF, 0x7F):
        filled = new_block if fill is None else partial(np.full, dtype=np.uint8, fill_value=fill)
        monkeypatch.setattr(lewis.buffers, "_new_block", filled)
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


def _runs_side_by_side(monkeypatch, workers: int) -> None:
    """Make each merge worker's first run wait in its prune until `workers` runs are in
    flight, so every worker takes a run however fast the others are."""
    arrived, lock = set(), threading.Lock()
    both_running = threading.Barrier(workers, timeout=10)
    apply_plan = lewis.merge_methods.apply_plan

    def waiting_apply_plan(*args, **kwargs):
        with lock:
            first = threading.get_ident() not in arrived
            arrived.add(threading.get_ident())
        if first:
            both_running.wait()
        return apply_plan(*args, **kwargs)

    monkeypatch.setattr(lewis.merge_methods, "apply_plan", waiting_apply_plan)


@pytest.mark.parametrize("cores", [1, 4, 32])
def test_a_merge_makes_one_block_per_worker(tmp_path, monkeypatch, cores):
    """A merge plus write makes min(cores, 2, runs) blocks of one size, then the writer's."""
    recipe = _toy_recipe(tmp_path, 4)
    pin_machine(monkeypatch, cores=cores)
    expected = _tensor_bytes(merge(recipe))
    sizes = [arr.size for arr in lewis.read_checkpoint(recipe.base_path).tensors.values()]
    workers = min(cores, 2, len(lewis.merge_methods._runs(sizes, max(sizes))))
    per_element, pad = lewis.merge_methods._block_layout(2, elect=recipe.method in ("ties", "dare-ties"))
    made = []
    new_block = lewis.buffers._new_block
    monkeypatch.setattr(lewis.buffers, "_new_block", lambda nbytes: made.append(nbytes) or new_block(nbytes))
    _runs_side_by_side(monkeypatch, workers)
    merged = merge(recipe)
    write_checkpoint(merged, tmp_path / "merged.safetensors")
    assert _tensor_bytes(merged) == expected
    assert made[:-1] == [per_element * max(sizes) + pad + lewis.buffers._ALIGN] * workers and len(made) == workers + 1


def test_workers_never_share_a_live_block(tmp_path, monkeypatch):
    """At 4 cores, each of the two workers lends exactly one block, and no block is
    lent to two threads at once."""
    recipe = _toy_recipe(tmp_path, 8)
    lends: dict[int, set[int]] = {}
    live: dict[int, int] = {}  # id of a lent block -> the thread it is lent to
    clashes = []
    lock = threading.Lock()
    lent = Block.lent

    @contextlib.contextmanager
    def recording_lent(block):
        me = threading.get_ident()
        with lock:
            if id(block) in live:
                clashes.append((me, live[id(block)]))
            live[id(block)] = me
            lends.setdefault(me, set()).add(id(block))
        try:
            with lent(block):
                yield block
        finally:
            with lock:
                live.pop(id(block), None)

    monkeypatch.setattr(Block, "lent", recording_lent)
    pin_machine(monkeypatch, cores=4)
    _runs_side_by_side(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        merge(recipe)
    finally:
        sys.setswitchinterval(interval)
    assert clashes == [] and len(lends) == 2
    assert all(len(blocks) == 1 for blocks in lends.values()) and len(set.union(*lends.values())) == 2
