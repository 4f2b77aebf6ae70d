"""Loss-function and optimizer tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.losses import CrossEntropyLoss, KLDivergenceLoss, accuracy
from repro.nn.module import Parameter
from repro.nn.optim import SGD, ConstantLR, CosineLR, StepLR


class TestCrossEntropy:
    def test_matches_manual_value(self):
        logits = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        targets = np.array([0, 1])
        loss_fn = CrossEntropyLoss()
        loss = loss_fn(logits, targets)
        manual = -np.log(np.exp(2) / (np.exp(2) + 2)) - np.log(np.exp(3) / (np.exp(3) + 2))
        assert loss == pytest.approx(manual / 2)

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 5))
        targets = rng.integers(0, 5, size=4)
        loss_fn = CrossEntropyLoss()
        loss_fn(logits, targets)
        grad = loss_fn.backward()
        eps = 1e-6
        for i in range(4):
            for j in range(5):
                bumped = logits.copy()
                bumped[i, j] += eps
                plus = CrossEntropyLoss()(bumped, targets)
                bumped[i, j] -= 2 * eps
                minus = CrossEntropyLoss()(bumped, targets)
                assert grad[i, j] == pytest.approx((plus - minus) / (2 * eps), abs=1e-6)

    def test_perfect_prediction_has_small_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert CrossEntropyLoss()(logits, np.array([0, 1])) == pytest.approx(0.0, abs=1e-10)

    def test_label_smoothing_increases_loss_on_confident_predictions(self):
        logits = np.array([[50.0, 0.0]])
        targets = np.array([0])
        assert CrossEntropyLoss(label_smoothing=0.1)(logits, targets) > CrossEntropyLoss()(logits, targets)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()


class TestKLDivergence:
    def test_zero_when_identical(self):
        logits = np.random.default_rng(0).normal(size=(3, 4))
        assert KLDivergenceLoss()(logits, logits) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        student = rng.normal(size=(2, 5))
        teacher = rng.normal(size=(2, 5))
        assert KLDivergenceLoss()(student, teacher) >= -1e-12

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        student = rng.normal(size=(2, 3))
        teacher = rng.normal(size=(2, 3))
        loss_fn = KLDivergenceLoss(temperature=2.0)
        loss_fn(student, teacher)
        grad = loss_fn.backward()
        eps = 1e-6
        for i in range(2):
            for j in range(3):
                bumped = student.copy()
                bumped[i, j] += eps
                plus = KLDivergenceLoss(temperature=2.0)(bumped, teacher)
                bumped[i, j] -= 2 * eps
                minus = KLDivergenceLoss(temperature=2.0)(bumped, teacher)
                assert grad[i, j] == pytest.approx((plus - minus) / (2 * eps), abs=1e-6)


class TestAccuracy:
    def test_values(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_empty(self):
        assert accuracy(np.zeros((0, 3)), np.zeros(0)) == 0.0


class TestSGD:
    def test_plain_step(self):
        p = Parameter(np.array([1.0, 2.0]))
        p.grad[:] = [0.5, -0.5]
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [0.95, 2.05])

    def test_momentum_accumulates(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad[:] = 1.0
        opt.step()
        assert p.data[0] == pytest.approx(-1.0)
        p.grad[:] = 1.0
        opt.step()
        # velocity = 0.5*1 + 1 = 1.5
        assert p.data[0] == pytest.approx(-2.5)

    def test_weight_decay(self):
        p = Parameter(np.array([2.0]))
        p.grad[:] = 0.0
        SGD([p], lr=0.1, weight_decay=0.5).step()
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_zero_grad(self):
        p = Parameter(np.array([1.0]))
        p.grad[:] = 5.0
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert np.allclose(p.grad, 0.0)

    def test_invalid_hyperparameters(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(ValueError):
            SGD([p], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"lr": float("nan")}, "learning rate"),
            ({"lr": 0.0}, "learning rate"),
            ({"lr": 0.1, "weight_decay": float("nan")}, "weight decay"),
            ({"lr": 0.1, "weight_decay": -0.5}, "weight decay"),
            ({"lr": 0.1, "momentum": float("nan")}, "momentum"),
        ],
    )
    def test_nan_fails_every_check(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SGD([Parameter(np.array([1.0]))], **kwargs)


class TestSchedules:
    def test_constant(self):
        assert ConstantLR(0.01)(99) == 0.01

    def test_step(self):
        schedule = StepLR(0.1, step_size=10, gamma=0.1)
        assert schedule(0) == pytest.approx(0.1)
        assert schedule(10) == pytest.approx(0.01)
        assert schedule(25) == pytest.approx(0.001)

    def test_cosine_endpoints(self):
        schedule = CosineLR(0.1, total_rounds=100, min_lr=0.0)
        assert schedule(0) == pytest.approx(0.1)
        assert schedule(100) == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < schedule(50) < 0.1
