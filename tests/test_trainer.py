"""Trainer: loss, masking, gradients vs finite differences, training loop."""

import math

import numpy as np
import pytest

from alora import (BASE_POLICY, AdapterSpec, CacheStore, ModelConfig,
                   SftExample, TrainConfig, backward_adapter, build_policy,
                   forward_segment, make_synthetic_task, random_adapter,
                   random_weights, read_dataset, sft_loss, train,
                   write_dataset)
from alora.adapters import MODE_ALORA, MODE_LORA, ActivationPoint
from alora.errors import ContractViolationError, TrainingDivergedError
from alora.tasks import (EOS_ID, INVOCATION_SEQUENCE, MARKER_ID, NO_ID,
                         TASK_CLASSIFY_MARKER, TASK_COPY_KEY, YES_ID)
from alora.trainer import (AdapterParams, _backward, _batch_loss_and_grads,
                           _forward_tape, _loss_and_grad_logits, example_loss)


@pytest.fixture(scope="module")
def grad_config():
    return ModelConfig(n_layers=2, n_heads=2, d_model=16, d_head=8,
                       vocab_size=32, max_positions=64)


@pytest.fixture(scope="module")
def grad_weights(grad_config):
    return random_weights(grad_config, seed=5)


def small_example(rng, n_ctx=6, n_target=2, vocab=32):
    return SftExample(
        context_tokens=tuple(rng.integers(8, vocab, size=n_ctx).tolist()),
        invocation_tokens=(2, 3),
        target_tokens=tuple(rng.integers(8, vocab, size=n_target).tolist())
        + (0,))


def template_spec():
    return AdapterSpec(adapter_id="t", mode=MODE_ALORA, deltas={},
                       invocation_sequence=INVOCATION_SEQUENCE)


class TestSftLoss:
    def test_certain_model_has_zero_loss(self):
        ex = SftExample(context_tokens=(5,), invocation_tokens=(2,),
                        target_tokens=(7, 0))
        logits = np.full((4, 16), -50.0, dtype=np.float64)
        logits[1, 7] = 50.0   # row 1 predicts position 2 (first target)
        logits[2, 0] = 50.0   # row 2 predicts position 3 (EOS)
        assert sft_loss(logits, ex) < 1e-6

    def test_uniform_logits_log_vocab(self):
        ex = SftExample(context_tokens=(5,), invocation_tokens=(2,),
                        target_tokens=(7,))
        logits = np.zeros((3, 256), dtype=np.float64)
        assert sft_loss(logits, ex) == pytest.approx(math.log(256), rel=1e-9)

    def test_matches_scalar_oracle(self, rng):
        # oracle: plain python log-softmax accumulation
        ex = small_example(rng, n_ctx=4, n_target=3)
        logits = rng.standard_normal((len(ex.tokens), 32))
        expected = 0.0
        for i in range(ex.target_start, len(ex.tokens)):
            row = logits[i - 1]
            z = sum(math.exp(v) for v in row)
            expected += -math.log(math.exp(row[ex.tokens[i]]) / z)
        expected /= len(ex.target_tokens)
        assert sft_loss(logits, ex) == pytest.approx(expected, rel=1e-9)

    def test_empty_target_rejected(self):
        with pytest.raises(ContractViolationError):
            sft_loss(np.zeros((3, 8)),
                     SftExample(context_tokens=(1,), invocation_tokens=(2,),
                                target_tokens=()))

    def test_loss_ignores_non_target_rows(self, rng, grad_config, grad_weights):
        ex = small_example(rng)
        params = AdapterParams.initialize(grad_config, rank=2, alpha=4.0, seed=0)
        logits, _ = _forward_tape(ex.tokens, ex.t_invoke, grad_weights,
                                  grad_config, params)
        base = sft_loss(logits, ex)
        perturbed = logits.copy()
        perturbed[:ex.target_start - 1] += rng.standard_normal(
            perturbed[:ex.target_start - 1].shape)
        assert sft_loss(perturbed, ex) == base


class TestBackward:
    def test_zero_b_gives_zero_a_gradient(self, rng, grad_config, grad_weights):
        ex = small_example(rng)
        params = AdapterParams.initialize(grad_config, rank=3, alpha=6.0, seed=1)
        spec = params.to_spec(template_spec())
        grads_a, grads_b = backward_adapter(ex, spec, grad_weights, grad_config)
        for key in params.keys():
            assert np.all(grads_a[key] == 0.0)
        assert any(np.abs(g).max() > 0 for g in grads_b.values())

    def test_duplicate_example_doubles_batch_gradient(self, rng, grad_config,
                                                      grad_weights):
        ex = small_example(rng)
        params = AdapterParams.initialize(grad_config, rank=2, alpha=4.0, seed=2)
        for key in params.keys():
            params.b[key] = (0.05 * np.random.default_rng(3).standard_normal(
                params.b[key].shape)).astype(np.float32)
        loss1, ga1, gb1 = _batch_loss_and_grads([ex], grad_weights, grad_config,
                                                params, MODE_ALORA)
        loss2, ga2, gb2 = _batch_loss_and_grads([ex, ex], grad_weights,
                                                grad_config, params, MODE_ALORA)
        assert loss2.tolist() == [loss1[0], loss1[0]]
        for key in params.keys():
            assert np.abs(ga1[key]).max() > 0 and np.abs(gb1[key]).max() > 0
            assert np.array_equal(ga2[key], 2.0 * ga1[key])
            assert np.array_equal(gb2[key], 2.0 * gb1[key])

    @pytest.mark.parametrize("mode", [MODE_ALORA, MODE_LORA])
    def test_mixed_shapes_equal_sum_of_single_examples(self, mode, grad_config):
        # Two context lengths and two invocation lengths: four shapes (two
        # of them twice), so the step runs several groups. The grouped sums
        # run in another order than the sum over single examples, so the
        # two agree to rounding; the bound is fixed by the dtype.
        weights = random_weights(grad_config, seed=5).astype(np.float64)
        params = AdapterParams.initialize(grad_config, rank=2, alpha=4.0,
                                          seed=4, dtype=np.float64)
        gen = np.random.default_rng(6)
        for key in params.keys():
            params.b[key] = 0.05 * gen.standard_normal(params.b[key].shape)
        batch = [SftExample(context_tokens=tuple(gen.integers(8, 32, size=n_ctx)),
                            invocation_tokens=invocation,
                            target_tokens=tuple(gen.integers(8, 32, size=2)) + (0,))
                 for n_ctx, invocation in ((4, (2, 3)), (7, (2, 3)), (4, (2,)),
                                           (7, (2, 3)), (4, (2, 3)), (7, (2,)))]
        assert len({(len(ex.tokens), ex.t_invoke) for ex in batch}) == 4
        # a dropout mask per example, which must follow its example
        masks = [(gen.random((len(params.a), len(ex.tokens) - first, 2)) >= 0.3)
                 / 0.7 for ex in batch
                 for first in [ex.t_invoke if mode == MODE_ALORA else 0]]
        losses, grads_a, grads_b = _batch_loss_and_grads(
            batch, weights, grad_config, params, mode, masks)
        singles = [_batch_loss_and_grads([ex], weights, grad_config, params,
                                         mode, [mask])
                   for ex, mask in zip(batch, masks)]
        tol = 2 * len(batch) * np.finfo(np.float64).eps
        single_losses = np.concatenate([loss for loss, _, _ in singles])
        assert np.abs(losses - single_losses).max() <= tol * single_losses.max()
        for which, grads in ((1, grads_a), (2, grads_b)):
            for key in params.keys():
                parts = np.stack([single[which][key] for single in singles])
                assert np.abs(parts).max() > 0
                bound = tol * np.abs(parts).sum(axis=0)
                assert np.all(np.abs(grads[key] - parts.sum(axis=0)) <= bound)

    def test_finite_differences_f64(self, rng, grad_config):
        weights = random_weights(grad_config, seed=5).astype(np.float64)
        params = AdapterParams.initialize(grad_config, rank=2, alpha=4.0,
                                          seed=4, dtype=np.float64)
        gen = np.random.default_rng(6)
        for key in params.keys():
            params.b[key] = 0.02 * gen.standard_normal(params.b[key].shape)
        ex = small_example(rng, n_ctx=5, n_target=2)
        logits, tape = _forward_tape(ex.tokens, ex.t_invoke, weights,
                                     grad_config, params)
        _, dlogits = _loss_and_grad_logits(logits, ex)
        grads_a, grads_b = _backward(tape, dlogits, weights, grad_config, params)

        eps = 1e-5
        worst = 0.0
        for tensors, grads in ((params.a, grads_a), (params.b, grads_b)):
            for key in params.keys():
                tensor = tensors[key]
                flat = tensor.reshape(-1)
                for idx in range(0, flat.size, 7):  # probe a spread of entries
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    up = example_loss(ex, weights, grad_config, params)
                    flat[idx] = orig - eps
                    down = example_loss(ex, weights, grad_config, params)
                    flat[idx] = orig
                    fd = (up - down) / (2 * eps)
                    bp = grads.get(key).reshape(-1)[idx]
                    worst = max(worst, abs(fd - bp) / max(abs(fd), abs(bp), 1e-6))
        assert worst <= 1e-4


    def test_finite_differences_with_dropout_f64(self, rng, grad_config):
        # a fixed dropout mask makes the loss a deterministic function of
        # the factors, so its gradients take the same check
        weights = random_weights(grad_config, seed=5).astype(np.float64)
        params = AdapterParams.initialize(grad_config, rank=2, alpha=4.0,
                                          seed=4, dtype=np.float64)
        gen = np.random.default_rng(7)
        for key in params.keys():
            params.b[key] = 0.02 * gen.standard_normal(params.b[key].shape)
        ex = small_example(rng, n_ctx=5, n_target=2)
        mask = [(gen.random((len(params.a), len(ex.tokens) - ex.t_invoke, 2))
                 >= 0.5) / 0.5]
        step = lambda: _batch_loss_and_grads([ex], weights, grad_config, params,
                                             MODE_ALORA, mask)
        _, grads_a, grads_b = step()
        eps, worst = 1e-5, 0.0
        for tensors, grads in ((params.a, grads_a), (params.b, grads_b)):
            for key in params.keys():
                flat = tensors[key].reshape(-1)
                for idx in range(0, flat.size, 5):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    up = step()[0][0]
                    flat[idx] = orig - eps
                    down = step()[0][0]
                    flat[idx] = orig
                    fd = (up - down) / (2 * eps)
                    bp = grads[key].reshape(-1)[idx]
                    worst = max(worst, abs(fd - bp) / max(abs(fd), abs(bp), 1e-6))
        assert worst <= 1e-4


class TestForwardTape:
    def test_logits_match_engine_f64(self, rng, grad_config):
        # The tape batches the sequence and masks a full softmax where the
        # engine runs one row at a time over exact prefixes, so the two agree
        # to rounding only; the bound is fixed by the dtype, not measured.
        tol = 1e3 * np.finfo(np.float64).eps
        weights = random_weights(grad_config, seed=5).astype(np.float64)
        spec = random_adapter(grad_config.d_model, grad_config.n_layers, rank=2,
                              alpha=4.0, mode=MODE_ALORA, adapter_id="t",
                              seed=12, invocation_sequence=(2, 3), std=0.3)
        ex = small_example(rng)
        for params, policy in (
                (None, BASE_POLICY),
                (AdapterParams.from_spec(spec, dtype=np.float64),
                 build_policy(spec, ActivationPoint(ex.t_invoke)))):
            tape_logits, _ = _forward_tape(ex.tokens, ex.t_invoke, weights,
                                           grad_config, params)
            cache = CacheStore(grad_config, dtype=np.float64)
            engine_logits = np.stack([
                forward_segment([token], i, weights, grad_config, policy, cache)
                for i, token in enumerate(ex.tokens)])
            scale = np.abs(engine_logits).max()
            assert np.abs(tape_logits - engine_logits).max() <= tol * scale
        # the adapter moves the logits far more than the bound
        assert np.abs(tape_logits - _forward_tape(
            ex.tokens, ex.t_invoke, weights, grad_config, None)[0]).max() \
            > 1e6 * tol * scale


class TestTrainLoop:
    def test_zero_steps_leaves_adapter_unchanged(self, grad_config, grad_weights):
        params = AdapterParams.initialize(grad_config, rank=2, alpha=4.0, seed=7)
        spec = params.to_spec(template_spec())
        data = make_synthetic_task(TASK_COPY_KEY, 8, seed=0, vocab_size=32,
                                   n_distractors=1, n_values=2)
        result = train(data, spec, grad_weights, grad_config,
                       TrainConfig(steps=0, rank=2, alpha=4.0))
        for key, delta in spec.deltas.items():
            assert np.array_equal(result.spec.deltas[key].a, delta.a)
            assert np.array_equal(result.spec.deltas[key].b, delta.b)

    def test_base_weights_frozen(self, grad_config, grad_weights):
        snapshot = grad_weights.token_embedding.copy()
        layer_snapshot = grad_weights.layers[0].w_q.copy()
        data = make_synthetic_task(TASK_COPY_KEY, 16, seed=1, vocab_size=32,
                                   n_distractors=1, n_values=2)
        train(data, template_spec(), grad_weights, grad_config,
              TrainConfig(steps=5, batch_size=4, rank=2, alpha=4.0,
                          dropout_rate=0.05, seed=3))
        assert np.array_equal(grad_weights.token_embedding, snapshot)
        assert np.array_equal(grad_weights.layers[0].w_q, layer_snapshot)

    def test_same_seed_same_loss_curve(self, grad_config, grad_weights):
        data = make_synthetic_task(TASK_COPY_KEY, 16, seed=2, vocab_size=32,
                                   n_distractors=1, n_values=2)
        cfg = TrainConfig(steps=6, batch_size=4, rank=2, alpha=4.0,
                          dropout_rate=0.05, seed=11)
        run = lambda: [r["loss"] for r in
                       train(data, template_spec(), grad_weights, grad_config,
                             cfg).history]
        assert run() == run()

    def test_mixed_length_dataset_same_seed_same_loss_curve(
            self, tmp_path, grad_config, grad_weights):
        data = (make_synthetic_task(TASK_COPY_KEY, 8, seed=5, vocab_size=32,
                                    n_distractors=1, n_values=2)
                + make_synthetic_task(TASK_COPY_KEY, 8, seed=6, vocab_size=32,
                                      n_distractors=2, n_values=2))
        path = tmp_path / "mixed.jsonl"
        write_dataset(path, data)
        data = read_dataset(path)
        assert len({len(ex.tokens) for ex in data}) == 2
        cfg = TrainConfig(steps=6, batch_size=4, rank=2, alpha=4.0,
                          dropout_rate=0.05, seed=12)
        run = lambda: [r["loss"] for r in
                       train(data, template_spec(), grad_weights, grad_config,
                             cfg).history]
        first = run()
        assert all(math.isfinite(loss) for loss in first)
        assert first == run()

    def test_divergence_aborts_with_step(self, grad_config, grad_weights):
        # normalization keeps moderate blowups finite, so force f32 overflow
        data = make_synthetic_task(TASK_COPY_KEY, 8, seed=3, vocab_size=32,
                                   n_distractors=1, n_values=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as info:
                train(data, template_spec(), grad_weights, grad_config,
                      TrainConfig(steps=40, batch_size=4, rank=2, alpha=4.0,
                                  learning_rate=1e20, seed=0))
        assert info.value.step >= 1

    def test_rank_sweep_constructs_and_steps(self):
        # the full grid needs d_model >= 32 for the rank-32 point
        config = ModelConfig(n_layers=2, n_heads=2, d_model=32, d_head=16,
                             vocab_size=64, max_positions=64)
        weights = random_weights(config, seed=8)
        data = make_synthetic_task(TASK_COPY_KEY, 8, seed=4, vocab_size=64,
                                   n_distractors=1, n_values=2)
        for rank in (6, 8, 16, 32):
            result = train(data, template_spec(), weights, config,
                           TrainConfig(steps=2, batch_size=2, rank=rank,
                                       alpha=32.0, seed=0))
            assert result.spec.deltas[(0, "q")].rank == rank

    def test_pre_activation_rows_match_base_bitwise(self, rng, grad_config,
                                                    grad_weights):
        # training forward with adapted weights must keep pre-activation K/V
        # rows identical to the same forward under no adapter
        ex = small_example(rng)
        params = AdapterParams.initialize(grad_config, rank=2, alpha=4.0, seed=9)
        gen = np.random.default_rng(10)
        for key in params.keys():
            params.b[key] = (0.1 * gen.standard_normal(
                params.b[key].shape)).astype(np.float32)
        _, tape_adapted = _forward_tape(ex.tokens, ex.t_invoke, grad_weights,
                                        grad_config, params)
        _, tape_base = _forward_tape(ex.tokens, ex.t_invoke, grad_weights,
                                     grad_config, None)
        t = ex.t_invoke
        for rec_a, rec_b in zip(tape_adapted["layers"], tape_base["layers"]):
            assert np.array_equal(rec_a["kr"][:t], rec_b["kr"][:t])
            assert np.array_equal(rec_a["v"][:t], rec_b["v"][:t])
            assert not np.array_equal(rec_a["kr"][t:], rec_b["kr"][t:])


class TestSyntheticTasks:
    def test_copy_key_zero_distractors_sanity_floor(self):
        data = make_synthetic_task(TASK_COPY_KEY, 10, seed=0, n_distractors=0)
        for ex in data:
            assert ex.context_tokens[0] == MARKER_ID
            assert ex.target_tokens == (ex.context_tokens[2], EOS_ID)

    def test_copy_key_target_is_marked_value(self):
        data = make_synthetic_task(TASK_COPY_KEY, 50, seed=1, n_distractors=3)
        for ex in data:
            ctx = list(ex.context_tokens)
            marked = ctx.index(MARKER_ID)
            assert ex.target_tokens[0] == ctx[marked + 2]

    def test_reproducible_under_seed(self):
        a = make_synthetic_task(TASK_CLASSIFY_MARKER, 20, seed=9)
        b = make_synthetic_task(TASK_CLASSIFY_MARKER, 20, seed=9)
        assert a == b

    def test_classify_marker_label_balance(self):
        data = make_synthetic_task(TASK_CLASSIFY_MARKER, 1000, seed=5)
        yes = sum(1 for ex in data if ex.target_tokens[0] == YES_ID)
        assert 450 <= yes <= 550
        for ex in data:
            present = MARKER_ID in ex.context_tokens
            assert ex.target_tokens[0] == (YES_ID if present else NO_ID)

    def test_jsonl_round_trip(self, tmp_path):
        data = make_synthetic_task(TASK_COPY_KEY, 12, seed=3)
        path = tmp_path / "data.jsonl"
        write_dataset(path, data)
        assert read_dataset(path) == data
