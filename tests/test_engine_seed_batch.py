"""Tests for the ensemble axis: seed-batched multi-seed training.

Contract (DESIGN.md "Ensemble axis"):

* at float64 the batched program is **bitwise-identical** per seed to
  the serial `run_one` path, for every lifted method;
* batched runs land under the normal per-seed cell keys, so batched
  and per-process sweeps share the cache in both directions, and warm
  seeds short-circuit — only the misses are batched;
* duplicate seeds are rejected on every multi-seed entry point;
* unliftable methods fall back to the classic path transparently
  (`run_seed_cells`) or refuse loudly (`run_seed_batch` direct);
* the 5-D kernels match the solo kernels bitwise at both dtypes;
* the solo layers take a leading seed axis: slice ``i`` of a
  ``SeedStack.lift`` clone's output and parameter grads equals solo
  ``i``'s, bitwise at float64.
"""

import copy
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import Session
from repro.autograd import Tensor, default_dtype
from repro.autograd.conv import avg_pool2d, conv2d, max_pool2d
from repro.baselines.backbone import BackboneConfig, CompactTransformer
from repro.continual import Scenario
from repro.core.config import CDCLConfig
from repro.core.network import CDCLNetwork
from repro.core.pooling import SequencePool
from repro.core.tokenizer import ConvTokenizer
from repro.data.synthetic import mnist_usps
from repro.engine.executor import derive_seeds, run_seed_cells, run_seed_sweep
from repro.engine.registry import SCENARIOS, register_scenario
from repro.engine.runner import RunSpec, run_one
from repro.engine.seed_batch import _VecStepper, liftable, lifted_methods, run_seed_batch
from repro.nn import LayerNorm, Linear, MultiHeadSelfAttention, SeedStack, TransformerEncoder
from repro.optim import Adam, clip_grad_norm

#: float64 keeps every comparison exact; 2 tasks and 2 epochs keep the
#: training cheap while still crossing a task boundary (optimizer state
#: and replay memory survive into task 2 — the regime that breaks
#: incorrect lifts).
TINY = dict(
    samples_per_class=4,
    test_samples_per_class=2,
    epochs=2,
    warmup_epochs=1,
    dtype="float64",
)

if "_test/seed_batch_digits" not in SCENARIOS:

    @register_scenario(
        "_test/seed_batch_digits", description="2-task digit stream (seed-batch tests)"
    )
    def _seed_batch_digits(profile, seed, **params):
        stream = mnist_usps(
            "mnist->usps", samples_per_class=4, test_samples_per_class=2, rng=seed
        )
        stream.tasks = stream.tasks[:2]
        return stream


def tiny_spec(method: str = "FineTune", **kwargs) -> RunSpec:
    return RunSpec(
        method=method,
        scenario="_test/seed_batch_digits",
        profile="smoke",
        profile_overrides=dict(TINY),
        **kwargs,
    )


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "seed-batch-cache"))


def assert_cells_equal(solo, batch) -> None:
    """Bitwise comparison of two cells' full result payload."""
    assert set(solo.results) == set(batch.results)
    for scenario, r_solo in solo.results.items():
        r_batch = batch.results[scenario]
        np.testing.assert_array_equal(
            r_solo.r_matrix.values, r_batch.r_matrix.values
        )
        assert r_solo.acc == r_batch.acc
        assert r_solo.fgt == r_batch.fgt


class TestBitwiseEquality:
    """ISSUE acceptance: float64 batched == serial, per seed, bitwise."""

    @pytest.mark.parametrize(
        "method,seeds",
        [("FineTune", (0, 1, 2)), ("DER", (0, 1)), ("CDCL", (0, 1))],
    )
    def test_batched_matches_serial_bitwise(self, method, seeds):
        spec = tiny_spec(method)
        assert liftable(spec)
        batched = run_seed_batch(spec, seeds, use_cache=False)
        assert [cell.seed for cell in batched] == list(seeds)
        for seed, cell in zip(seeds, batched):
            solo = run_one(replace(spec, seed=seed), use_cache=False)
            assert_cells_equal(solo, cell)

    def test_lifted_method_registry(self):
        assert set(lifted_methods()) == {"CDCL", "DER", "FineTune"}
        assert not liftable(tiny_spec("EWC"))


class TestCrossModeCache:
    """Batched and per-seed runs share cells under the same keys."""

    def test_batched_run_warms_per_seed_lookups(self):
        spec = tiny_spec()
        cold = run_seed_batch(spec, (0, 1), use_cache=True)
        assert not any(cell.cached for cell in cold)
        for seed, batch_cell in zip((0, 1), cold):
            warm = run_one(replace(spec, seed=seed), use_cache=True)
            assert warm.cached
            assert_cells_equal(warm, batch_cell)

    def test_per_seed_runs_warm_batched_sweep(self):
        spec = tiny_spec()
        solos = [run_one(replace(spec, seed=s), use_cache=True) for s in (0, 1)]
        cells = run_seed_cells(spec, (0, 1), batched=True, use_cache=True)
        assert all(cell.cached for cell in cells)
        for solo, cell in zip(solos, cells):
            assert_cells_equal(solo, cell)

    def test_mixed_hits_batch_only_the_misses(self):
        spec = tiny_spec()
        run_one(replace(spec, seed=1), use_cache=True)
        cells = run_seed_cells(spec, (0, 1, 2), batched=True, use_cache=True)
        assert [cell.cached for cell in cells] == [False, True, False]
        assert [cell.seed for cell in cells] == [0, 1, 2]
        # The misses must agree with a fresh serial run seed-for-seed.
        for seed, cell in zip((0, 2), (cells[0], cells[2])):
            assert_cells_equal(run_one(replace(spec, seed=seed), use_cache=False), cell)


class TestValidation:
    def test_duplicate_seeds_rejected_batched(self):
        with pytest.raises(ValueError, match="distinct"):
            run_seed_sweep(tiny_spec(), seeds=(0, 0, 1), batched=True)

    def test_duplicate_seeds_rejected_classic(self):
        with pytest.raises(ValueError, match="distinct"):
            run_seed_sweep(tiny_spec(), seeds=(0, 0, 1), batched=False)

    def test_duplicate_seeds_rejected_direct(self):
        with pytest.raises(ValueError, match="distinct"):
            run_seed_batch(tiny_spec(), (3, 3))

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            run_seed_batch(tiny_spec(), ())

    def test_direct_batch_refuses_unliftable_method(self):
        with pytest.raises(ValueError, match="EWC"):
            run_seed_batch(tiny_spec("EWC"), (0, 1))

    def test_checkpoint_requires_cache(self):
        with pytest.raises(ValueError, match="checkpoint"):
            run_seed_batch(tiny_spec(), (0, 1), use_cache=False, checkpoint=True)


class TestFallback:
    def test_unliftable_method_falls_back_transparently(self):
        """batched=True on an unliftable method runs the classic path."""
        spec = tiny_spec("EWC")
        cells = run_seed_cells(spec, (0, 1), batched=True, use_cache=False)
        assert [cell.seed for cell in cells] == [0, 1]
        assert_cells_equal(run_one(replace(spec, seed=0), use_cache=False), cells[0])


class TestDeriveSeeds:
    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            derive_seeds(0, 0)
        with pytest.raises(ValueError, match="positive"):
            derive_seeds(0, -3)

    def test_count_one(self):
        assert derive_seeds(42, 1) == (3444837047,)

    def test_very_large_base_seed(self):
        # SeedSequence takes arbitrary-precision entropy; the expansion
        # must stay stable for bases beyond 64 bits.
        assert derive_seeds(2**100, 3) == (740723363, 1301814144, 1259337830)
        assert derive_seeds(2**100, 3) == derive_seeds(2**100, 3)

    def test_stability_snapshot(self):
        # Frozen expansions: a change here silently severs every cached
        # multiseed sweep from its cells — treat as a breaking change.
        expected = {
            0: (2968811710, 3677149159, 745650761, 2884920346,
                2642120001, 549907821, 574372308, 742431198),
            1: (1835504127, 1731038949, 1320224556, 2330041505,
                321059914, 1226144109, 2879408573, 3503041500),
            42: (3444837047, 2669555309, 2046530742, 3581440988,
                 1691623607, 2099784219, 1184028159, 862288241),
        }
        for base, seeds in expected.items():
            assert derive_seeds(base, 8) == seeds

    def test_prefix_property(self):
        assert derive_seeds(7, 8)[:3] == derive_seeds(7, 3)


class TestEnsembleKernels:
    """The 5-D kernels must match solo calls bitwise, grads included."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv2d_matches_per_seed(self, dtype):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 2, 4, 8, 8)).astype(dtype)
        w = rng.normal(size=(3, 5, 4, 3, 3)).astype(dtype)
        b = rng.normal(size=(3, 5)).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        out = conv2d(xt, wt, bt, stride=1, padding=1)
        out.sum().backward()
        for s in range(3):
            xs = Tensor(x[s], requires_grad=True)
            ws = Tensor(w[s], requires_grad=True)
            bs = Tensor(b[s], requires_grad=True)
            solo = conv2d(xs, ws, bs, stride=1, padding=1)
            solo.sum().backward()
            np.testing.assert_array_equal(out.data[s], solo.data)
            np.testing.assert_array_equal(xt.grad[s], xs.grad)
            np.testing.assert_array_equal(wt.grad[s], ws.grad)
            np.testing.assert_array_equal(bt.grad[s], bs.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool", [max_pool2d, avg_pool2d])
    def test_pooling_matches_per_seed(self, dtype, pool):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3, 2, 8, 8)).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        out = pool(xt, 2)
        out.sum().backward()
        for s in range(4):
            xs = Tensor(x[s], requires_grad=True)
            solo = pool(xs, 2)
            solo.sum().backward()
            np.testing.assert_array_equal(out.data[s], solo.data)
            np.testing.assert_array_equal(xt.grad[s], xs.grad)

    def test_mismatched_seed_axes_rejected(self):
        x = Tensor(np.zeros((3, 2, 4, 8, 8)))
        w = Tensor(np.zeros((2, 5, 4, 3, 3)))
        with pytest.raises(ValueError, match="seeds"):
            conv2d(x, w)


def _randomized(module, seed: int):
    """``module`` with every parameter redrawn, so no two seeds (and no
    ones/zeros LayerNorm init) coincide."""
    rng = np.random.default_rng(100 + seed)
    for param in module.parameters():
        param.data = rng.normal(size=param.shape)
    return module


class TestSeedAxis:
    """Slice ``i`` of ``SeedStack.lift(solos)(x)`` == ``solos[i](x[i])``,
    outputs and parameter grads, bitwise at float64."""

    S = 3

    def assert_lift_matches(self, build, shapes, call=lambda m, *xs: m(*xs), solos=None):
        with default_dtype("float64"):
            if solos is None:
                solos = [_randomized(build(seed), seed) for seed in range(self.S)]
            clone = SeedStack(self.S).lift(solos)
            rng = np.random.default_rng(0)
            inputs = [rng.normal(size=(self.S,) + shape) for shape in shapes]
            out = call(clone, *[Tensor(x) for x in inputs])
            upstream = rng.normal(size=out.shape)
            out.backward(upstream)
            stacked = list(clone.named_parameters())
            assert any(p.grad is not None for _name, p in stacked)
            for i, solo in enumerate(solos):
                ref = call(solo, *[Tensor(x[i]) for x in inputs])
                ref.backward(upstream[i])
                np.testing.assert_array_equal(out.data[i], ref.data)
                for (name, big), (_name, param) in zip(stacked, solo.named_parameters()):
                    if big.grad is None:
                        assert param.grad is None, name
                    else:
                        np.testing.assert_array_equal(big.grad[i], param.grad, err_msg=name)
        return clone

    def test_linear(self):
        self.assert_lift_matches(lambda seed: Linear(5, 4, rng=seed), [(2, 3, 5)])

    def test_layer_norm(self):
        self.assert_lift_matches(lambda seed: LayerNorm(6), [(2, 4, 6)])

    def test_self_attention(self):
        self.assert_lift_matches(
            lambda seed: MultiHeadSelfAttention(8, 2, rng=seed), [(2, 5, 8)]
        )

    def test_cross_attention(self):
        self.assert_lift_matches(
            lambda seed: MultiHeadSelfAttention(8, 2, rng=seed), [(2, 5, 8), (2, 7, 8)]
        )

    def test_transformer_encoder(self):
        self.assert_lift_matches(
            lambda seed: TransformerEncoder(8, 2, 2, rng=seed), [(2, 5, 8)]
        )

    def test_conv_tokenizer(self):
        self.assert_lift_matches(
            lambda seed: ConvTokenizer(2, 4, image_size=8, rng=seed), [(2, 2, 8, 8)]
        )

    def test_sequence_pool(self):
        self.assert_lift_matches(lambda seed: SequencePool(8, rng=seed), [(2, 5, 8)])

    def test_compact_transformer(self):
        self.assert_lift_matches(
            lambda seed: CompactTransformer(BackboneConfig.fast(), 1, 8, rng=seed),
            [(2, 1, 8, 8)],
        )

    @pytest.mark.parametrize("cross", [False, True])
    def test_cdcl_features_after_two_tasks(self, cross):
        with default_dtype("float64"):
            solos = []
            for seed in range(self.S):
                network = CDCLNetwork(CDCLConfig.fast(depth=2), 1, 8, rng=seed)
                network.add_task(2)
                solos.append(_randomized(network, seed))
            stack = SeedStack(self.S)
            first = stack.lift(solos)
            for seed, network in enumerate(solos):
                network.add_task(2)
            clone = stack.lift(solos)
        # A re-lift reuses the stacked parameters it already adopted.
        assert clone.tokenizer.blocks[0].weight is first.tokenizer.blocks[0].weight
        keys = [layer.attn.task_keys for layer in clone.encoder.layers]
        assert all(not k[0].weight.requires_grad and k[1].weight.requires_grad for k in keys)
        assert not clone.encoder.layers[0].attn.task_bias_0.requires_grad

        def features(net, x, *context):
            return net.features(x, 1, *context)

        shapes = [(2, 1, 8, 8), (2, 1, 8, 8)] if cross else [(2, 1, 8, 8)]
        self.assert_lift_matches(None, shapes, features, solos=solos)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="names or shapes"):
            SeedStack(2).lift([Linear(4, 3, rng=0), Linear(4, 5, rng=1)])


class TestVecStepper:
    """The stacked Adam step equals S solo Adam steps, bitwise, through
    a seed whose gradient goes non-finite (the skewed per-seed path)."""

    def test_matches_solo_adam_through_skew(self):
        with default_dtype("float64"), np.errstate(invalid="ignore"):
            solos = [Linear(4, 3, rng=seed) for seed in range(2)]
            refs = [copy.deepcopy(solo) for solo in solos]
            stack = SeedStack(2)
            clone = stack.lift(solos)
            methods = [SimpleNamespace(optimizer=Adam(m.parameters(), lr=0.01)) for m in solos]
            stepper = _VecStepper(stack, methods, lambda m: m.optimizer.params, 1.0)
            assert stepper.vectorized
            ref_opts = [Adam(ref.parameters(), lr=0.01) for ref in refs]
            rng = np.random.default_rng(0)
            for step in range(4):
                x = rng.normal(size=(2, 5, 4))
                if step == 2:
                    x[1, 0, 0] = np.inf
                stepper.step(clone(Tensor(x)).sum(axis=(-1, -2)))
                for i, (ref, opt) in enumerate(zip(refs, ref_opts)):
                    opt.zero_grad()
                    ref(Tensor(x[i])).sum().backward()
                    clip_grad_norm(ref.parameters(), 1.0)
                    opt.step()
                    np.testing.assert_array_equal(clone.weight.data[i], ref.weight.data)
                    np.testing.assert_array_equal(clone.bias.data[i], ref.bias.data)
            assert any("skew" in state for state in stepper.adam_state.values())


class TestSessionRouting:
    def _builder(self, session: Session):
        return (
            session.run("FineTune")
            .on("_test/seed_batch_digits")
            .profile("smoke", **TINY)
        )

    def test_builder_carries_batched_flag(self):
        base = self._builder(Session())
        assert base.seed_batched is None
        assert base.seeds(2, batched=True).seed_batched is True
        assert base.seeds(2, batched=False).seed_batched is False

    def test_batched_session_run_shares_cache_with_serial(self):
        session = Session()
        batched = self._builder(session).seeds(2, batched=True).result()
        serial = self._builder(session).seeds(2, batched=False).result()
        for protocol in (Scenario.TIL, Scenario.CIL):
            assert batched.acc(protocol) == serial.acc(protocol)
            assert batched.fgt(protocol) == serial.fgt(protocol)
