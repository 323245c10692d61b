"""Timing-noise distribution tests."""

import itertools
import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.sim import distributions as dists
from repro.sim.distributions import (
    BoundedPareto,
    Constant,
    LogNormalJitter,
    Shifted,
    SpikeMixture,
    Uniform,
    inverse_cdf,
)
from repro.sim.rng import _numpy_uniforms


@pytest.fixture
def rng():
    return random.Random(42)


def test_constant_samples_and_cdf():
    c = Constant(3.0)
    assert c.sample(random.Random(0)) == 3.0
    assert c.mean == 3.0
    assert c.cdf(2.9) == 0.0 and c.cdf(3.0) == 1.0


def test_uniform_sample_within_bounds(rng):
    u = Uniform(1.0, 2.0)
    samples = [u.sample(rng) for _ in range(500)]
    assert all(1.0 <= s <= 2.0 for s in samples)
    assert abs(sum(samples) / len(samples) - 1.5) < 0.05


def test_uniform_cdf():
    u = Uniform(0.0, 2.0)
    assert u.cdf(-1) == 0.0 and u.cdf(1.0) == 0.5 and u.cdf(3.0) == 1.0


def test_uniform_rejects_inverted_bounds():
    with pytest.raises(ConfigurationError):
        Uniform(2.0, 1.0)


def test_lognormal_mean_matches_parameter(rng):
    d = LogNormalJitter(1e-3, 0.1)
    samples = [d.sample(rng) for _ in range(4000)]
    assert abs(sum(samples) / len(samples) - 1e-3) / 1e-3 < 0.02


def test_lognormal_clipping(rng):
    d = LogNormalJitter(1.0, 1.0, lo_clip=0.9, hi_clip=1.1)
    samples = [d.sample(rng) for _ in range(200)]
    assert all(0.9 <= s <= 1.1 for s in samples)


def test_lognormal_zero_sigma_is_constant(rng):
    d = LogNormalJitter(2.0, 0.0)
    assert d.sample(rng) == 2.0


def test_lognormal_invalid_params():
    with pytest.raises(ConfigurationError):
        LogNormalJitter(0.0, 0.1)
    with pytest.raises(ConfigurationError):
        LogNormalJitter(1.0, -0.1)


def test_lognormal_cdf_monotone():
    d = LogNormalJitter(1.0, 0.3)
    xs = [0.1, 0.5, 1.0, 2.0, 5.0]
    cdfs = [d.cdf(x) for x in xs]
    assert cdfs == sorted(cdfs)
    assert d.cdf(0.0) == 0.0


def test_bounded_pareto_support_and_mean(rng):
    d = BoundedPareto(xm=1e-4, alpha=2.0, cap=1e-2)
    samples = [d.sample(rng) for _ in range(5000)]
    assert all(1e-4 <= s <= 1e-2 for s in samples)
    empirical = sum(samples) / len(samples)
    assert abs(empirical - d.mean) / d.mean < 0.1


def test_bounded_pareto_inv_cdf_roundtrip():
    d = BoundedPareto(xm=1e-4, alpha=3.0, cap=1e-2)
    for u in (0.01, 0.5, 0.9, 0.999):
        assert abs(d.cdf(d.inv_cdf(u)) - u) < 1e-9


def test_bounded_pareto_alpha_one_mean():
    d = BoundedPareto(xm=1.0, alpha=1.0, cap=10.0)
    assert d.mean > 1.0


def test_bounded_pareto_invalid_params():
    with pytest.raises(ConfigurationError):
        BoundedPareto(0.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        BoundedPareto(1.0, -1.0, 2.0)
    with pytest.raises(ConfigurationError):
        BoundedPareto(2.0, 1.0, 1.0)


def test_spike_mixture_rates(rng):
    base = Constant(1.0)
    spike = Constant(100.0)
    mix = SpikeMixture(base, spike, spike_prob=0.1)
    samples = [mix.sample(rng) for _ in range(5000)]
    spike_rate = sum(1 for s in samples if s == 100.0) / len(samples)
    assert 0.07 < spike_rate < 0.13
    assert abs(mix.mean - (0.9 * 1.0 + 0.1 * 100.0)) < 1e-12


def test_spike_mixture_cdf_combines():
    mix = SpikeMixture(Uniform(0, 1), Uniform(10, 11), 0.25)
    assert abs(mix.cdf(1.0) - 0.75) < 1e-12
    assert mix.cdf(11.0) == 1.0


def test_spike_mixture_invalid_prob():
    with pytest.raises(ConfigurationError):
        SpikeMixture(Constant(1), Constant(2), 1.5)


def test_shifted_distribution(rng):
    d = Shifted(Uniform(0.0, 1.0), 10.0)
    s = d.sample(rng)
    assert 10.0 <= s <= 11.0
    assert d.mean == 10.5
    assert d.cdf(10.5) == 0.5
    assert d.support() == (10.0, 11.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.001, max_value=0.999))
def test_numeric_inverse_cdf_roundtrip(u):
    d = SpikeMixture(Uniform(0.0, 1.0), BoundedPareto(2.0, 2.5, 50.0), 0.2)
    x = inverse_cdf(d, u)
    assert abs(d.cdf(x) - u) < 1e-6


# ---------------------------------------------------------------------------
# Bound samplers: the hot-path draw callables
# ---------------------------------------------------------------------------

SAMPLED = [
    Constant(3.0),
    Uniform(2.38e-6, 3.60e-6),
    LogNormalJitter(2.5e-6, 0.15),
    LogNormalJitter(1.07e-8, 0.035, lo_clip=9.23e-9, hi_clip=1.15e-8),
    LogNormalJitter(4.0, 0.0),
    BoundedPareto(xm=8e-5, alpha=2.4, cap=1.32e-3),
    SpikeMixture(LogNormalJitter(2.2e-5, 0.45), BoundedPareto(8e-5, 2.4, 1.32e-3), 0.05),
    Shifted(Uniform(0.0, 1.0), 10.0),
]


@pytest.mark.parametrize("dist", SAMPLED, ids=lambda d: type(d).__name__)
def test_sampler_draws_exactly_what_sample_draws(dist):
    draw = dist.sampler(random.Random(7))
    reference = random.Random(7)
    assert [draw() for _ in range(3000)] == [dist.sample(reference) for _ in range(3000)]


def test_hot_distributions_hand_out_their_closure():
    for dist in (Uniform(0.0, 1.0), LogNormalJitter(1.0, 0.1), SAMPLED[6]):
        assert not isinstance(dist.sampler(random.Random(1)), partial)
    assert isinstance(Constant(1.0).sampler(random.Random(1)), partial)


def test_samplers_match_the_stdlib_draw_for_draw():
    mu_sigma = LogNormalJitter(2.5e-6, 0.15)
    draw = mu_sigma.sampler(random.Random(11))
    reference = random.Random(11)
    assert [draw() for _ in range(3000)] == [
        reference.lognormvariate(mu_sigma.mu, mu_sigma.sigma) for _ in range(3000)
    ]
    draw = Uniform(2.0, 5.0).sampler(random.Random(12))
    reference = random.Random(12)
    assert [draw() for _ in range(100)] == [reference.uniform(2.0, 5.0) for _ in range(100)]


def test_sampler_honours_an_overridden_or_wrapped_sample(monkeypatch):
    class Doubled(LogNormalJitter):
        def sample(self, rng):
            return 2.0 * super().sample(rng)

    plain = LogNormalJitter(1.0, 0.2)
    doubled = Doubled(1.0, 0.2)
    assert doubled.sampler(random.Random(3))() == 2.0 * plain.sampler(random.Random(3))()

    calls = []
    original = LogNormalJitter.sample

    def wrapped(self, rng):  # a profiler wrapping ``sample`` on the class
        calls.append(self)
        return original(self, rng)

    monkeypatch.setattr(LogNormalJitter, "sample", wrapped)
    direct = plain.sampler(random.Random(3))
    nested = SpikeMixture(plain, Constant(9.0), 0.0).sampler(random.Random(3))
    value = direct()
    nested()
    monkeypatch.undo()
    assert value == plain.sampler(random.Random(3))()
    assert calls == [plain, plain]


# ---------------------------------------------------------------------------
# Exact block fills: draw for draw what the scalar closure draws
# ---------------------------------------------------------------------------

PARETO = BoundedPareto(xm=8e-5, alpha=2.4, cap=1.32e-3)
BLOCK_FILLED = [
    LogNormalJitter(6e-6, 0.6),
    LogNormalJitter(1.0, 1.0, lo_clip=0.9, hi_clip=1.1),
    LogNormalJitter(1.0, 2.0, lo_clip=0.5),
    SpikeMixture(LogNormalJitter(2.2e-5, 0.45), PARETO, 1.1e-4),
    SpikeMixture(LogNormalJitter(2.2e-5, 0.45), PARETO, 0.0),
    SpikeMixture(LogNormalJitter(2.2e-5, 0.45, hi_clip=3e-5), PARETO, 0.5),
    SpikeMixture(LogNormalJitter(2.2e-5, 0.45), PARETO, 1.0),
]
#: (first, cap) block sizes: tiny ones make draws straddle every boundary.
BLOCK_SIZES = [(2, 2), (2, 6), (4, 64), (dists._BLOCK_FIRST, dists._BLOCK_CAP)]


def _block_draws(dist, rng, n, sizes=None):
    first, cap = sizes or (dists._BLOCK_FIRST, dists._BLOCK_CAP)
    blocks = dist.block_fill()(_numpy_uniforms(rng), first=first, cap=cap)
    return list(itertools.islice(itertools.chain.from_iterable(blocks), n))


def _scalar_draws(dist, rng, n):
    draw = dist.sampler(rng)
    return [draw() for _ in range(n)]


def _twin(seed, drawn):
    """Two identical generators that have already drawn ``drawn`` uniforms."""
    pair = random.Random(seed), random.Random(seed)
    for rng in pair:
        for _ in range(drawn):
            rng.random()
    return pair


@settings(max_examples=60, deadline=None)
@given(
    dist=st.sampled_from(BLOCK_FILLED),
    seed=st.integers(0, 2**32 - 1),
    drawn=st.integers(0, 700),
    sizes=st.sampled_from(BLOCK_SIZES),
)
def test_block_fill_matches_the_scalar_closure(dist, seed, drawn, sizes):
    blocked, scalar = _twin(seed, drawn)  # 700 > 624 crosses an MT twist
    assert _block_draws(dist, blocked, 3000, sizes) == _scalar_draws(dist, scalar, 3000)


@pytest.mark.parametrize("dist", [
    LogNormalJitter(4.0, 0.0),
    LogNormalJitter(4.0, 0.0, lo_clip=5.0),
    LogNormalJitter(4.0, 0.0, hi_clip=3.0),
    SpikeMixture(LogNormalJitter(4.0, 0.0), PARETO, 0.5),
    SpikeMixture(Uniform(0.0, 1.0), PARETO, 0.5),
    Uniform(0.0, 1.0),
], ids=repr)
def test_no_block_fill_where_it_would_not_pay_or_apply(dist):
    assert dist.block_fill() is None


def test_subclasses_and_wrapped_samples_have_no_block_fill(monkeypatch):
    class Doubled(LogNormalJitter):
        def sample(self, rng):
            return 2.0 * super().sample(rng)

    assert Doubled(1.0, 0.2).block_fill() is None
    assert SpikeMixture(Doubled(1.0, 0.2), PARETO, 0.1).block_fill() is None
    monkeypatch.setattr(BoundedPareto, "sample", lambda self, rng: 0.0)
    assert BLOCK_FILLED[3].block_fill() is None


def _ulp_off(function, direction):
    return lambda x, *args, **kwargs: np.nextafter(function(x, *args, **kwargs), direction)


@pytest.mark.parametrize("direction", [np.inf, -np.inf], ids=["up", "down"])
def test_block_draws_do_not_trust_numpy_log_or_exp(monkeypatch, direction):
    monkeypatch.setattr(np, "log", _ulp_off(np.log, direction))
    monkeypatch.setattr(np, "exp", _ulp_off(np.exp, direction))
    for dist in (BLOCK_FILLED[0], BLOCK_FILLED[3]):
        blocked, scalar = _twin(11, 3)
        assert _block_draws(dist, blocked, 20000) == _scalar_draws(dist, scalar, 20000)


@pytest.mark.parametrize("direction", [np.inf, -np.inf], ids=["up", "down"])
def test_pair_test_rechecks_the_boundary_with_math_log(monkeypatch, direction):
    # Pairs built to sit on the acceptance boundary z*z/4 == -log(u2), then
    # nudged by a few ulps either way.
    u2 = np.linspace(0.05, 0.999, 400)
    z = 2.0 * np.sqrt(-np.log(u2))
    u1 = 0.5 + z * u2 / dists._NV_MAGICCONST
    u1 = np.concatenate([u1 + k * np.spacing(u1) for k in range(-3, 4)])
    u2 = np.tile(u2, 7)
    expected = []
    for a, b in zip(u1.tolist(), u2.tolist()):
        zz = dists._NV_MAGICCONST * (a - 0.5) / b
        expected.append(zz * zz / 4.0 <= -math.log(b))
    shifted = _ulp_off(np.log, direction)
    zs = dists._NV_MAGICCONST * (u1 - 0.5) / u2
    naive = (zs * zs / 4.0 <= -shifted(u2)).tolist()
    assert naive != expected  # the shifted log alone decides some pairs wrongly
    monkeypatch.setattr(np, "log", shifted)
    _, accepted = dists._pair_test(u1, u2)
    assert accepted.tolist() == expected


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 7, 2019])
def test_a_million_block_draws_match(seed):
    for dist in (BLOCK_FILLED[0], BLOCK_FILLED[3]):
        blocked, scalar = _twin(seed, 0)
        assert _block_draws(dist, blocked, 10**6) == _scalar_draws(dist, scalar, 10**6)


class _Replay:
    """A stand-in ``random.Random`` that returns fixed uniforms in order."""

    def __init__(self, uniforms):
        self.random = iter(uniforms).__next__


def test_a_draw_of_hundreds_of_uniforms_then_an_unfinished_one():
    # Selector, then 150 rejected pairs (z*z/4 = 0.71 > -log(0.5) = 0.69),
    # then an accepted pair (z = 0): a 303-uniform draw, followed by two
    # ordinary draws and the selector of one the block cannot finish.
    long_draw = [0.5] + [0.99, 0.5] * 150 + [0.5, 0.5]
    uniforms = long_draw + [0.3, 0.4, 0.2] + [0.7, 0.6, 0.1] + [0.9]
    dist = SpikeMixture(LogNormalJitter(2.2e-5, 0.45), PARETO, 1.1e-4)
    base = dist.base
    values, used = dists._mixture_block(
        np.array(uniforms), dist.spike_prob, PARETO.inv_cdf,
        base.mu, base.sigma, base.lo_clip, base.hi_clip,
    )
    draw = dist.sampler(_Replay(uniforms))
    assert used == len(uniforms) - 1 and values == [draw() for _ in range(3)]
