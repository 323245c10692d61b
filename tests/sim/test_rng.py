"""Deterministic RNG registry tests."""

import functools
import random

import pytest

from repro.config import ProberConfig, default_cross_core_read_delay
from repro.errors import ConfigurationError
from repro.sim.distributions import Constant, LogNormalJitter, SpikeMixture, Uniform
from repro.sim.rng import RngRegistry, derive_seed


def test_same_name_returns_same_stream():
    reg = RngRegistry(7)
    assert reg.stream("a") is reg.stream("a")


def test_streams_are_deterministic_across_registries():
    a = RngRegistry(7).stream("x")
    b = RngRegistry(7).stream("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_give_different_sequences():
    reg = RngRegistry(7)
    xs = [reg.stream("x").random() for _ in range(5)]
    ys = [reg.stream("y").random() for _ in range(5)]
    assert xs != ys


def test_different_master_seeds_differ():
    assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()


def test_consuming_one_stream_does_not_disturb_another():
    reg1 = RngRegistry(7)
    reg2 = RngRegistry(7)
    reg1.stream("noise").random()  # consume from an unrelated stream
    assert reg1.stream("x").random() == reg2.stream("x").random()


def test_reseed_clears_streams():
    reg = RngRegistry(7)
    first = reg.stream("x").random()
    reg.reseed(7)
    assert reg.stream("x").random() == first  # fresh identical stream


def test_fork_is_independent_of_parent():
    parent = RngRegistry(7)
    child = parent.fork("child")
    assert child.master_seed != parent.master_seed
    assert child.stream("x").random() != parent.stream("x").random()


def test_derive_seed_stable():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")


# ---------------------------------------------------------------------------
# Streams owned by a sampler
# ---------------------------------------------------------------------------


def test_sampler_owns_its_stream():
    reg = RngRegistry(7)
    reg.sampler("v", LogNormalJitter(1.0, 0.3))
    with pytest.raises(ConfigurationError, match="owned by a sampler"):
        reg.stream("v")
    reg.stream("other")  # other streams are untouched


def test_equal_distributions_share_one_sampler():
    reg = RngRegistry(7)
    # every ProberConfig builds its own distribution objects
    first = reg.sampler("v", ProberConfig().cross_core_delay)
    assert reg.sampler("v", ProberConfig().cross_core_delay) is first


def test_shared_sampler_interleaves_like_one_random():
    reg = RngRegistry(7)
    a = reg.sampler("v", default_cross_core_read_delay())
    b = reg.sampler("v", default_cross_core_read_delay())
    rng = random.Random(derive_seed(7, "v"))
    c = default_cross_core_read_delay().sampler(rng)
    d = default_cross_core_read_delay().sampler(rng)
    assert [f() for _ in range(500) for f in (a, b)] == [
        f() for _ in range(500) for f in (c, d)
    ]


def test_a_different_distribution_on_an_owned_stream_raises():
    reg = RngRegistry(7)
    reg.sampler("v", LogNormalJitter(1.0, 0.3))
    with pytest.raises(ConfigurationError, match="other parameters"):
        reg.sampler("v", LogNormalJitter(1.0, 0.4))
    with pytest.raises(ConfigurationError):
        reg.sampler("v", Uniform(0.0, 1.0))


def test_a_constant_claims_nothing():
    reg = RngRegistry(7)
    assert reg.sampler("v", Constant(2.5))() == 2.5
    assert reg.stream("v").random() == RngRegistry(7).stream("v").random()
    reg.sampler("w", LogNormalJitter(1.0, 0.3))
    assert reg.sampler("w", Constant(1.0))() == 1.0


def test_reseed_drops_ownership():
    reg = RngRegistry(7)
    first = reg.sampler("v", LogNormalJitter(1.0, 0.3))()
    reg.reseed(7)
    reg.stream("w")
    assert reg.sampler("v", LogNormalJitter(1.0, 0.3))() == first
    reg.reseed(7)
    assert reg.stream("v").random() == RngRegistry(7).stream("v").random()


@pytest.mark.parametrize(
    "dist",
    [default_cross_core_read_delay(), LogNormalJitter(6e-6, 0.6), Uniform(1.0, 2.0)],
    ids=lambda d: type(d).__name__,
)
def test_sampler_draws_what_the_stream_would(dist):
    reg = RngRegistry(2019)
    reg.stream("v").random()  # a stream already drawn from continues
    draw = reg.sampler("v", dist)
    rng = random.Random(derive_seed(2019, "v"))
    rng.random()
    reference = dist.sampler(rng)
    assert [draw() for _ in range(20000)] == [reference() for _ in range(20000)]


def test_the_prober_streams_are_block_served():
    reg = RngRegistry(1)
    config = ProberConfig()
    reg.sampler("vis", config.cross_core_delay)
    reg.sampler("jit", config.wake_jitter)
    reg.sampler("uni", Uniform(0.0, 1.0))
    assert reg.block_served("vis") and reg.block_served("jit")
    assert not reg.block_served("uni") and not reg.block_served("unbound")


def _traced(original):
    """Wrap ``sample`` the way the e2e tracer does: a timing shim."""

    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        return original(*args, **kwargs)

    wrapper.calls = 0
    return functools.update_wrapper(wrapper, original)


def test_a_wrapped_sample_gets_the_scalar_path(monkeypatch):
    wrapper = _traced(LogNormalJitter.sample)
    monkeypatch.setattr(LogNormalJitter, "sample", wrapper)
    reg = RngRegistry(3)
    jitter = reg.sampler("jit", LogNormalJitter(6e-6, 0.6))
    mixture = reg.sampler("vis", default_cross_core_read_delay())
    assert not reg.block_served("jit") and not reg.block_served("vis")
    traced = [jitter() for _ in range(50)] + [mixture() for _ in range(50)]
    assert wrapper.calls == 100  # every draw passes through the wrapper
    monkeypatch.undo()
    blocks = RngRegistry(3)
    jitter = blocks.sampler("jit", LogNormalJitter(6e-6, 0.6))
    mixture = blocks.sampler("vis", default_cross_core_read_delay())
    assert blocks.block_served("jit") and blocks.block_served("vis")
    assert traced == [jitter() for _ in range(50)] + [mixture() for _ in range(50)]


def test_a_wrapped_mixture_sample_gets_the_scalar_path(monkeypatch):
    wrapper = _traced(SpikeMixture.sample)
    monkeypatch.setattr(SpikeMixture, "sample", wrapper)
    reg = RngRegistry(3)
    draw = reg.sampler("vis", default_cross_core_read_delay())
    draw()
    assert wrapper.calls == 1 and not reg.block_served("vis")
