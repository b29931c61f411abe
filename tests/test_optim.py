"""Optimizer, initializer, and seed-resolution tests."""

import numpy as np
import pytest

from gean.decoder import (CHANNELS, DecoderConfig, DecoderParams,
                          teacher_forced_loss)
from gean.errors import GeanError
from gean.optim import (ADAM_BLOCK, AdamState, init_orthogonal, init_xavier,
                        resolve_seed)
from gean.tensor import Parameter, Tape
from gean.text import Vocabulary


def test_zero_gradient_leaves_parameter():
    p = Parameter("p", np.array([1.0, 2.0]))
    p.grad = np.zeros(2)
    AdamState(lr=0.1).step([p])
    np.testing.assert_array_equal(p.data, [1.0, 2.0])


def test_adam_single_step_hand_value():
    # m_hat = v_hat = 1 after one unit-gradient step, so the update is
    # lr / (1 + eps) ~ lr
    p = Parameter("p", np.array(0.0))
    p.grad = np.array(1.0)
    AdamState(lr=0.1).step([p])
    assert float(p.data) == pytest.approx(-0.1, abs=1e-8)


def test_adam_negative_lr_rejected():
    with pytest.raises(GeanError, match="learning rate must be >= 0"):
        AdamState(lr=-1e-4)


def test_adam_zero_lr_is_noop():
    p = Parameter("p", np.array([3.0]))
    p.grad = np.array([1.5])
    AdamState(lr=0.0).step([p])
    np.testing.assert_array_equal(p.data, [3.0])


def test_orthogonal_init():
    q = init_orthogonal((4, 4), np.random.default_rng(0))
    np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-10)


def test_orthogonal_rectangular():
    q = init_orthogonal((6, 3), np.random.default_rng(1))
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)


def test_xavier_bound():
    w = init_xavier((30, 20), np.random.default_rng(2))
    bound = np.sqrt(6.0 / 50.0)
    assert np.all(np.abs(w) <= bound)


def test_resolve_seed_env_override(monkeypatch):
    monkeypatch.setenv("GEAN_SEED", "17")
    assert resolve_seed(3) == 17
    monkeypatch.delenv("GEAN_SEED")
    assert resolve_seed(3) == 3
    assert resolve_seed(None) == 0


# ---------------------------------------------------------------------------
# blocked in-place Adam against the whole-array loop it replaced
# ---------------------------------------------------------------------------

class ReferenceAdam:
    """The whole-array Adam loop: one temporary per operation, and a new
    zero grad array per Parameter after each step."""

    def __init__(self, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p in params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m.get(p.name)
            if m is None:
                m = np.zeros_like(p.data)
                self.m[p.name] = m
                self.v[p.name] = np.zeros_like(p.data)
            v = self.v[p.name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.grad = np.zeros_like(p.data)


def _assert_same_params(new, ref):
    for p, q in zip(new, ref):
        assert p.data.shape == q.data.shape and p.data.dtype == q.data.dtype
        assert np.array_equal(p.data, q.data), p.name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_adam_matches_whole_array_loop(dtype):
    # one block, one block plus one element, several blocks, a 0-d
    # Parameter, F-ordered data, an F-ordered grad and a missing grad
    rng = np.random.default_rng(0)
    shapes = {"block": (ADAM_BLOCK,), "block_plus_1": (ADAM_BLOCK + 1,),
              "matrix": (300, 700), "scalar": (), "f_data": (70, 30),
              "f_grad": (30, 70), "no_grad": (5,)}
    new, ref = [], []
    for name, shape in shapes.items():
        data = rng.standard_normal(shape).astype(dtype)
        if name == "f_data":
            data = np.asfortranarray(data)
        new.append(Parameter(name, data.copy(order="K")))
        ref.append(Parameter(name, data.copy(order="K")))
    opt, ref_opt = AdamState(lr=1e-2), ReferenceAdam(lr=1e-2)
    for _ in range(4):
        held = {}
        for p, q in zip(new, ref):
            g = rng.standard_normal(p.shape).astype(dtype)
            if p.name == "f_grad":
                p.grad, q.grad = np.asfortranarray(g), np.asfortranarray(g)
            elif p.name != "no_grad":
                p.accumulate(g)
                q.accumulate(g)
                held[p.name] = p.grad
        opt.step(new)
        ref_opt.step(ref)
        _assert_same_params(new, ref)
        for p in new:
            assert p.grad.shape == p.shape and p.grad.dtype == dtype
            assert p.grad.flags.c_contiguous and not p.grad.any()
            if p.name in held:
                assert p.grad is held[p.name]


@pytest.mark.parametrize("l2_coeff", [0.0, 1e-3])
def test_blocked_adam_trains_decoder_like_whole_array_loop(l2_coeff):
    # at l2 0 each wq_* grad is first written through a transpose, so it
    # arrives F-ordered; a flat view of it would be a copy
    cfg = DecoderConfig(vocab_size=6, embed=4, hidden=4, att=3, feat=5,
                        agg_splits=(2, 2, 3))
    vocab = Vocabulary(["a", "b", "c"])
    pools = {ch: np.random.default_rng(1).standard_normal((4, cfg.feat))
             for ch in CHANNELS}
    sides = []
    for opt in (AdamState(lr=1e-2), ReferenceAdam(lr=1e-2)):
        params = DecoderParams.create(np.random.default_rng(0), cfg)
        sides.append((params, opt, np.random.default_rng(2)))
    for _ in range(3):
        for params, opt, rng in sides:
            with Tape() as tape:
                loss = teacher_forced_loss(pools, [3, 4, 5], params, vocab,
                                           l2_coeff, dropout_on=True, rng=rng)
                tape.backward(loss)
            opt.step(params.all())
        _assert_same_params(sides[0][0].all(), sides[1][0].all())
