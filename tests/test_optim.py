"""Optimizer, initializer, and seed-resolution tests."""

import tracemalloc

import numpy as np
import pytest

from gean.decoder import (CHANNELS, DecoderConfig, DecoderParams,
                          teacher_forced_loss)
from gean import optim
from gean.optim import (ADAM_BLOCK, AdamState, init_orthogonal, init_xavier,
                        resolve_seed)
from gean import tensor as T
from gean.tensor import Parameter, Tape, Tensor
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


def test_adam_zero_lr_is_noop():
    p = Parameter("p", np.array([3.0]))
    p.grad = np.array([1.5])
    AdamState(lr=0.0).step([p])
    np.testing.assert_array_equal(p.data, [3.0])


def test_orthogonal_init():
    q = init_orthogonal((4, 4), np.random.default_rng(0), np.float64)
    np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-10)


def test_orthogonal_rectangular():
    q = init_orthogonal((6, 3), np.random.default_rng(1), np.float64)
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)


def test_xavier_bound():
    w = init_xavier((30, 20), np.random.default_rng(2), np.float64)
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
    zero grad array per Parameter after each step. By default the update is
    the efficient form of arXiv:1412.6980 Sec. 2, as AdamState runs it;
    `textbook` takes it through the bias-corrected m_hat and v_hat."""

    def __init__(self, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8,
                 textbook=False):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.textbook = textbook
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        root_c2 = (1 - b2 ** self.t) ** 0.5
        alpha = self.lr * root_c2 / (1 - b1 ** self.t)
        eps_hat = self.eps * root_c2
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
            if self.textbook:
                m_hat = m / (1 - b1 ** self.t)
                v_hat = v / (1 - b2 ** self.t)
                p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            else:
                p.data -= alpha * m / (np.sqrt(v) + eps_hat)
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
            if p.name == "no_grad":  # stepped with zeros from scratch
                assert p.grad is None
                continue
            assert p.grad.shape == p.shape and p.grad.dtype == dtype
            assert p.grad.flags.c_contiguous and not p.grad.any()
            if p.name in held:
                assert p.grad is held[p.name]


@pytest.mark.parametrize("l2_coeff", [0.0, 1e-3])
def test_blocked_adam_trains_decoder_like_whole_array_loop(l2_coeff):
    # a real sweep's grads: written by products into Adam's zero fill,
    # scattered into by gathers, added to, and at l2 > 0 given an l2 term
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


def test_efficient_form_matches_textbook_adam():
    # alpha_t = lr sqrt(1 - b2^t) / (1 - b1^t) and eps_hat = eps
    # sqrt(1 - b2^t) against lr m_hat / (sqrt(v_hat) + eps), in float64
    rng = np.random.default_rng(3)
    shapes = {"matrix": (40, 30), "vector": (7,), "scalar": ()}
    start = {n: rng.standard_normal(s) for n, s in shapes.items()}
    new = [Parameter(n, d.copy()) for n, d in start.items()]
    ref = [Parameter(n, d.copy()) for n, d in start.items()]
    opt, ref_opt = AdamState(lr=1e-2), ReferenceAdam(lr=1e-2, textbook=True)
    for _ in range(4):
        for p, q in zip(new, ref):
            g = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 2)
            p.grad, q.grad = g.copy(), g.copy()
        opt.step(new)
        ref_opt.step(ref)
    for p, q in zip(new, ref):
        moved, ref_moved = p.data - start[p.name], q.data - start[q.name]
        np.testing.assert_allclose(moved, ref_moved, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# one write per weight gradient: products into Adam's zeroed grad, and the
# l2 term kept pending on the Parameter until Adam or a reader of `grad`
# ---------------------------------------------------------------------------

def _stepped(*params):
    """Parameters given grads that Adam (at lr 0, so the data stay) then
    zero-filled."""
    for p in params:
        p.grad = np.ones_like(p.data)
    AdamState(lr=0.0).step(params)
    return params


@pytest.fixture
def accumulates(monkeypatch):
    """Names of the Parameters that a sweep adds to through `accumulate`,
    the path every contribution but a direct product write takes."""
    calls = []
    plain = Parameter.accumulate

    def spy(self, g):
        calls.append(self.name)
        plain(self, g)

    monkeypatch.setattr(Parameter, "accumulate", spy)
    return calls


def test_two_products_in_one_sweep_sum(accumulates):
    rng = np.random.default_rng(30)
    (P,) = _stepped(Parameter("P", rng.standard_normal((3, 4))))
    held = P.grad
    xs = [rng.standard_normal((4, 2)) for _ in range(2)]
    cs = [rng.standard_normal((3, 2)) for _ in range(2)]
    with Tape() as tape:
        tape.backward(sum(T.tensor_sum(T.matmul(P, Tensor(x)) * Tensor(c))
                          for x, c in zip(xs, cs)))
    assert P.grad is held
    np.testing.assert_allclose(P.grad, cs[0] @ xs[0].T + cs[1] @ xs[1].T,
                               rtol=1e-14, atol=1e-14)
    assert accumulates == []  # both products stacked into one write


def test_grad_assigned_after_step_is_added_to(accumulates):
    rng = np.random.default_rng(31)
    (P,) = _stepped(Parameter("P", rng.standard_normal((3, 4))))
    mine = rng.standard_normal((3, 4))
    P.grad = mine
    x, c = rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
    expect = mine + c @ x.T
    with Tape() as tape:
        tape.backward(T.tensor_sum(T.matmul(P, Tensor(x)) * Tensor(c)))
    assert P.grad is mine
    np.testing.assert_allclose(mine, expect, rtol=1e-14, atol=1e-14)
    assert accumulates == ["P"]


def test_float64_product_into_float32_parameter_falls_back(accumulates):
    rng = np.random.default_rng(32)
    (P,) = _stepped(Parameter("P",
                              rng.standard_normal((3, 4)).astype(np.float32)))
    x, c = rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
    with Tape() as tape:
        out = T.matmul(P, Tensor(x))
        assert out.data.dtype == np.float64
        tape.backward(T.tensor_sum(out * Tensor(c)))
    assert accumulates == ["P"]
    assert P.grad.dtype == np.float32
    np.testing.assert_array_equal(P.grad, (c @ x.T).astype(np.float32))


@pytest.mark.parametrize("first", ["scatter", "accumulate"])
def test_contribution_then_product_keeps_both(accumulates, first):
    # the sweep reaches the gather or the mul (recorded last) before the
    # product
    rng = np.random.default_rng(33)
    (E,) = _stepped(Parameter("E", rng.standard_normal((4, 5))))
    x, c = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
    idx = np.array([1, 1, 3])
    expect = c @ x.T
    if first == "scatter":
        w = rng.standard_normal((4, 3))
        np.add.at(expect, (slice(None), idx), w)
        reach = lambda: T.column(E, idx) * Tensor(w)
    else:
        w = rng.standard_normal((4, 5))
        expect += w
        reach = lambda: E * Tensor(w)
    with Tape() as tape:
        product = T.tensor_sum(T.matmul(E, Tensor(x)) * Tensor(c))
        tape.backward(product + T.tensor_sum(reach()))
    np.testing.assert_allclose(E.grad, expect, rtol=1e-14, atol=1e-14)
    assert accumulates == ["E"] * (1 + (first == "accumulate"))


def test_unreached_parameter_keeps_zero_grad():
    rng = np.random.default_rng(34)
    P, Q = _stepped(Parameter("P", rng.standard_normal((3, 4))),
                    Parameter("Q", rng.standard_normal((3, 4))))
    held = Q.grad
    with Tape() as tape:
        tape.backward(T.tensor_sum(T.matmul(P, Tensor(np.ones((4, 2))))))
    assert Q.grad is held and not Q.grad.any()


def test_pending_l2_term_is_applied_once():
    rng = np.random.default_rng(35)
    P = Parameter("P", rng.standard_normal((3, 4)))
    x, c = rng.standard_normal((4, 2)), rng.standard_normal((3, 2))

    def sweep(coeff):
        with Tape() as tape:
            tape.backward(T.tensor_sum(T.matmul(P, Tensor(x)) * Tensor(c))
                          + coeff * T.sumsq(P))

    sweep(0.5)
    assert P.l2 == 1.0  # 2g, with g = 0.5
    expect = c @ x.T + P.data
    np.testing.assert_array_equal(P.grad, expect)
    np.testing.assert_array_equal(P.grad, expect)  # a second read
    P.grad = None
    sweep(0.5)
    P.grad = None  # assigning drops the pending term with the grad
    assert P.grad is None and P.l2 == 0.0

    # a step adds the pending term once; the next step sees a zero grad
    Q = Parameter("P", P.data.copy())
    opt, ref_opt = AdamState(lr=1e-2), ReferenceAdam(lr=1e-2)
    sweep(0.5)
    Q.grad = c @ x.T + Q.data
    for _ in range(2):
        opt.step([P])
        ref_opt.step([Q])
        assert P.l2 == 0.0 and not P.grad.any()
        np.testing.assert_array_equal(P.data, Q.data)


def test_backward_peak_stays_below_largest_weight():
    # a step with l2 on at hidden 64, feat 1024: a weight product or the l2
    # term that built a temporary per weight would reach wg_fovea's size
    cfg = DecoderConfig(vocab_size=8, hidden=64, feat=1024)
    vocab = Vocabulary(["a", "b", "c", "d", "e"])
    rng = np.random.default_rng(36)
    params = DecoderParams.create(rng, cfg)
    largest = max(p.data.nbytes for p in params.all())
    assert largest == params.wg_fovea.data.nbytes == 2_097_152
    pools = {ch: Tensor(rng.standard_normal((4, cfg.feat)), dtype=np.float32)
             for ch in CHANNELS}
    opt = AdamState(lr=1e-3)
    for step in range(2):
        with Tape() as tape:
            loss = teacher_forced_loss(pools, [3, 4, 5, 6], params, vocab,
                                       1e-5, dropout_on=True, rng=rng)
            tracemalloc.start()
            try:
                tape.backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        opt.step(params.all())
    assert peak < largest


# ---------------------------------------------------------------------------
# weight gradients left as factors (A, B) until Adam multiplies them out
# ---------------------------------------------------------------------------

FACTORED = DecoderConfig(vocab_size=40, embed=32, hidden=32, att=16, feat=64,
                         agg_splits=(16, 16, 32))


def _factored_sweep(params, l2_coeff, seed=3):
    vocab = Vocabulary(["w%d" % i for i in range(FACTORED.vocab_size - 4)])
    rng = np.random.default_rng(seed)
    pools = {ch: Tensor(rng.standard_normal((4, FACTORED.feat)))
             for ch in CHANNELS}
    with Tape() as tape:
        tape.backward(teacher_forced_loss(pools, [5, 6, 7, 8], params, vocab,
                                          l2_coeff, dropout_on=True, rng=rng))


def _matrices(params):
    return [p for n, p in params.params.items()
            if p.data.ndim == 2 and n != "embedding"]


def test_decoder_sweep_leaves_weight_factors_not_dense_grads():
    params = DecoderParams.create(np.random.default_rng(0), FACTORED,
                                  dtype=np.float64)
    _factored_sweep(params, 1e-3)
    for p in _matrices(params):
        assert p._grad is None and p.factors is not None, p.name
    assert params.embedding._grad is not None


def test_factored_grad_reads_as_the_dense_product_write():
    # the dense side gets zero-filled fresh grads first, so each product is
    # written into its grad at the sweep's end as before factors existed
    sides = [DecoderParams.create(np.random.default_rng(0), FACTORED)
             for _ in range(2)]
    _stepped(*sides[1].all())
    for params in sides:
        _factored_sweep(params, 1e-3)
    for p, q in zip(_matrices(sides[0]), _matrices(sides[1])):
        assert p.factors is not None and q.factors is None
        assert p.grad.tobytes() == q.grad.tobytes(), p.name


def test_failed_sweep_leaves_no_factors():
    rng = np.random.default_rng(37)
    P = Parameter("P", rng.standard_normal((20, 30)))
    v = Parameter("v", rng.standard_normal(30))

    def boom(g):
        raise RuntimeError("backward failed")

    with Tape() as tape:
        x = T.tanh(v)
        y = T.tensor_sum(T.matmul(P, T.tanh(x)))
        x._backward = boom
        with pytest.raises(RuntimeError):
            tape.backward(y)
    assert P.factors is None and P.grad is None


def test_parameter_as_left_and_right_operand():
    rng = np.random.default_rng(38)
    P = Parameter("P", rng.standard_normal((30, 30)))
    x, y = rng.standard_normal((30, 2)), rng.standard_normal((2, 30))
    c1, c2 = rng.standard_normal((30, 2)), rng.standard_normal((2, 30))
    with Tape() as tape:
        tape.backward(T.tensor_sum(T.matmul(P, Tensor(x)) * Tensor(c1))
                      + T.tensor_sum(T.matmul(Tensor(y), P) * Tensor(c2)))
    assert P.factors is not None
    np.testing.assert_allclose(P.grad, c1 @ x.T + y.T @ c2, rtol=1e-12,
                               atol=1e-12)


def test_factored_adam_matches_whole_array_loop(monkeypatch):
    # blocks of 8 elements, shorter than a row of any matrix here, and GEMMs
    # of a few rows, against the whole-array loop on the materialized grads
    monkeypatch.setattr(optim, "ADAM_BLOCK", 8)
    monkeypatch.setattr(optim, "PRODUCT_BLOCK", 200)
    sides = [DecoderParams.create(np.random.default_rng(0), FACTORED)
             for _ in range(2)]
    opts = AdamState(lr=1e-2), ReferenceAdam(lr=1e-2)
    for step in range(3):
        for params, opt in zip(sides, opts):
            _factored_sweep(params, 1e-3, seed=step)
            if opt is opts[0]:
                assert all(p.factors is not None for p in _matrices(params))
            opt.step(params.all())
        _assert_same_params(sides[0].all(), sides[1].all())


def test_parameter_without_gradient_gets_no_grad_array():
    P = Parameter("P", np.ones((1000, 1000), np.float32))
    P.l2 = 0.5
    tracemalloc.start()
    try:
        AdamState(lr=1e-2).step([P])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.grad is None
    assert peak < 3 * P.data.nbytes  # m, v and scratch; no zero grad
    ref = Parameter("P", np.ones((1000, 1000), np.float32))
    ref.grad = 0.5 * ref.data
    ReferenceAdam(lr=1e-2).step([ref])
    np.testing.assert_array_equal(P.data, ref.data)
