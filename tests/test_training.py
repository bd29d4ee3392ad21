"""Training-loop tests: loss oracle values, gradients, determinism, overfit runs."""

import copy
import hashlib

import numpy as np
import pytest

import evdetect.training
from evdetect.data import SynthConfig, WindowBatch, fit_stats, normalize, sliding_windows, synth_household
from evdetect.model import ModelDims, ModelParams, mtr_forward
from evdetect.nn import AdamState, Hyper, adam_step, grad_check
from evdetect.training import TrainingDiverged, reconstruction_loss, reconstruction_loss_t, train

TINY = ModelDims(C=4, hidden=4, heads=2, lm=2, gm=4, e0=3, e1=2)


def _tiny_batch(seed=0, n=4):
    rng = np.random.default_rng(seed)
    return WindowBatch(rng.normal(size=(n, TINY.lm)), rng.normal(size=(n, TINY.gm)))


class TestReconstructionLoss:
    def test_perfect_reconstruction_is_zero(self):
        # force the reconstruction to equal the target by checking the formula
        batch = WindowBatch(np.zeros((2, 2)), np.zeros((2, 4)))
        params = ModelParams(TINY, seed=1)
        rec = mtr_forward(batch.lm_windows, batch.gm_windows, params)
        by_hand = float(np.mean((rec - batch.lm_windows) ** 2))
        assert reconstruction_loss(batch, params) == pytest.approx(by_hand, abs=1e-15)

    def test_mean_of_squares_oracle(self):
        # 2x2 case: loss against an all-zero reconstruction is mean(values^2);
        # verified by shifting the targets so the model output cancels
        params = ModelParams(TINY, seed=2)
        batch = _tiny_batch(seed=3, n=2)
        rec = mtr_forward(batch.lm_windows, batch.gm_windows, params)
        loss = reconstruction_loss(batch, params)
        assert loss == pytest.approx(float(np.mean((batch.lm_windows - rec) ** 2)))

    def test_gradient_passes_grad_check(self):
        params = ModelParams(TINY, seed=4)
        batch = _tiny_batch(seed=5, n=2)
        err = grad_check(lambda: reconstruction_loss_t(batch, params), params.parameters(), delta=1e-4)
        assert err < 1e-4


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        batch = _tiny_batch(seed=6, n=8)
        hyper = Hyper(epochs=0)
        params, report = train(batch, hyper, seed=7, dims=TINY)
        fresh = ModelParams(TINY, seed=7)
        for a, b in zip(params.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        assert report.epoch_losses == []
        assert report.final_loss == report.initial_loss

    def test_bit_reproducible_for_fixed_seed(self):
        batch = _tiny_batch(seed=8, n=12)
        hyper = Hyper(learning_rate=1e-3, epochs=3, batch_size=4)
        p1, r1 = train(batch, hyper, seed=9, dims=TINY)
        p2, r2 = train(batch, hyper, seed=9, dims=TINY)
        assert r1.epoch_losses == r2.epoch_losses
        for a, b in zip(p1.parameters(), p2.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_warm_start_is_deterministic_and_leaves_the_source_alone(self):
        # fine-tuning a source model: `train(params=...)` updates the model it is given
        batch = _tiny_batch(seed=9, n=12)
        source, _ = train(batch, Hyper(learning_rate=1e-3, epochs=2, batch_size=4), seed=3, dims=TINY)
        before = source.vector.copy()
        same, report = train(batch, Hyper(epochs=0), params=source)
        assert same is source and report.epoch_losses == []
        np.testing.assert_array_equal(source.vector, before)

        hyper = Hyper(learning_rate=1e-3, epochs=2, batch_size=4)
        tuned_a, report_a = train(batch, hyper, seed=5, params=copy.deepcopy(source))
        tuned_b, report_b = train(batch, hyper, seed=5, params=copy.deepcopy(source))
        np.testing.assert_array_equal(tuned_a.vector, tuned_b.vector)
        assert report_a.epoch_losses == report_b.epoch_losses and len(report_a.epoch_losses) == 2
        assert not np.array_equal(tuned_a.vector, before)
        np.testing.assert_array_equal(source.vector, before)

    def test_same_seed_init_keeps_the_per_head_draw_order(self):
        # digest of the weights drawn head by head and stacked, before the
        # flat vector; one (heads, C, d) draw must give the same numbers
        digest = hashlib.sha256(ModelParams(ModelDims(), seed=0).vector.tobytes()).hexdigest()
        assert digest == "231791d6825e95461a5d8b84a5c8f7450eee1af1f46e5d8f2fca93cba57efc08"

    def test_flat_adam_matches_per_tensor_recomposition(self, monkeypatch):
        batch = _tiny_batch(seed=8, n=12)
        hyper = Hyper(learning_rate=1e-3, epochs=3, batch_size=4)
        calls = []

        def counted_adam_step(params, grads, state, hyper):
            calls.append(len(params))
            return adam_step(params, grads, state, hyper)

        monkeypatch.setattr(evdetect.training, "adam_step", counted_adam_step)
        trained, report = train(batch, hyper, seed=9, dims=TINY)
        assert calls == [1] * 9  # one flat update per batch

        # the same loop with per-tensor gradients and a per-tensor Adam state
        ref = ModelParams(TINY, seed=9)
        tensors = ref.parameters()
        opt_params = [t.data for t in tensors]
        state = AdamState.for_params(opt_params)
        rng = np.random.default_rng(9)
        initial = reconstruction_loss(batch, ref)
        losses = []
        for _ in range(hyper.epochs):
            order = rng.permutation(len(batch))
            total = 0.0
            for lo in range(0, len(batch), hyper.batch_size):
                idx = order[lo : lo + hyper.batch_size]
                for t in tensors:
                    t.zero_grad()
                loss = reconstruction_loss_t(WindowBatch(batch.lm_windows[idx], batch.gm_windows[idx]), ref)
                loss.backward()
                grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
                adam_step(opt_params, grads, state, hyper)
                total += float(loss.data) * len(idx)
            losses.append(total / len(batch))
        assert report.epoch_losses == losses
        assert report.initial_loss == initial
        assert report.final_loss == reconstruction_loss(batch, ref)
        for a, b in zip(trained.parameters(), tensors):
            np.testing.assert_array_equal(a.data, b.data)

    def test_divergence_aborts_with_report(self):
        batch = _tiny_batch(seed=10, n=8)
        hyper = Hyper(learning_rate=50.0, epochs=50, batch_size=8, weight_decay=0.0)
        with pytest.raises(TrainingDiverged) as excinfo:
            train(batch, hyper, seed=11, dims=TINY)
        assert excinfo.value.report is not None

    @pytest.mark.slow
    def test_overfits_pure_sine(self):
        x = np.sin(np.linspace(0, 16 * np.pi, 800))
        stats = fit_stats(x)
        windows = sliding_windows(normalize(x, stats), TINY.lm, TINY.gm, stride=2)
        hyper = Hyper(learning_rate=5e-3, weight_decay=0.0, epochs=200, batch_size=64)
        params, report = train(windows, hyper, seed=12, dims=TINY, patience=200)
        assert report.final_loss < 0.1 * report.initial_loss

    @pytest.mark.slow
    @pytest.mark.filterwarnings("ignore::evdetect.data.NormalizationWarning")
    def test_constant_series_reconstructed_within_tolerance(self):
        c = 2.0
        x = np.full(200, c)
        stats = fit_stats(x)  # std fallback expected
        windows = sliding_windows(normalize(x, stats), TINY.lm, TINY.gm, stride=1)
        hyper = Hyper(learning_rate=5e-3, weight_decay=0.0, epochs=60, batch_size=64)
        params, _ = train(windows, hyper, seed=13, dims=TINY, patience=60)
        rec_norm = mtr_forward(windows.lm_windows[0], windows.gm_windows[0], params)
        rec_kw = rec_norm * stats.std + stats.mean
        assert np.all(np.abs(rec_kw - c) <= 0.05 * abs(c) + 0.05)


@pytest.mark.slow
def test_scores_separate_ev_from_non_ev_windows():
    # Mann-Whitney: reconstruction errors on EV-labeled windows are
    # stochastically higher than on clean windows after training on clean data
    from scipy.stats import mannwhitneyu

    dims = ModelDims(C=8, hidden=8, heads=2, lm=8, gm=32, e0=16, e1=8)
    train_series = synth_household(SynthConfig(days=4, session_rate=0.0, seed=14))
    stats = fit_stats(train_series.powers)
    windows = sliding_windows(normalize(train_series.powers, stats), dims.lm, dims.gm, stride=3)
    hyper = Hyper(learning_rate=2e-3, weight_decay=0.0, epochs=15, batch_size=64)
    params, _ = train(windows, hyper, seed=15, dims=dims)

    test_series = synth_household(SynthConfig(days=6, seed=16))
    labels = test_series.labels
    z = normalize(test_series.powers, stats)
    batch = sliding_windows(z, dims.lm, dims.gm, stride=5)
    rec = []
    for i in range(len(batch)):
        rec.append(mtr_forward(batch.lm_windows[i], batch.gm_windows[i], params))
    scores = np.mean((np.stack(rec) - batch.lm_windows) ** 2, axis=1)
    span = dims.lm + dims.gm
    window_label = np.array(
        [labels[i * 5 + dims.gm : i * 5 + span].max() for i in range(len(batch))]
    )
    assert window_label.sum() > 10 and (window_label == 0).sum() > 10
    stat = mannwhitneyu(scores[window_label == 1], scores[window_label == 0], alternative="greater")
    assert stat.pvalue < 0.01
