"""``ScalarDraws`` against ``np.random.default_rng``: equal values and equal
stream consumption for every mix of ``random()`` and ``integers(n)``.

The class reproduces numpy's scalar algorithms (PCG64's 53-bit doubles and
the bounded 32-bit draw that keeps the upper half of a word for the next
one), so these tests run in CI against the oldest numpy the project allows
too: a release that changes those algorithms fails here first."""

from dataclasses import replace

import numpy as np
import pytest

from cpssperso.workshop_env import (
    _DRAW_BLOCK,
    ContextConfig,
    EnvParams,
    ScalarDraws,
    WorkshopEnv,
)

SEEDS = [0, 1, 2024, [3, 0], [12_345, 1]]
BOUNDS = [1, 2, 5, 17, 18, 2**31 + 11, 2**32]


def blocks_drawn(draws: ScalarDraws, seed) -> int:
    """How many blocks of words ``draws`` took from its generator."""
    state = draws._bitgen.state["state"]
    fresh = np.random.default_rng(seed).bit_generator
    for blocks in range(100):
        if fresh.state["state"] == state:
            return blocks
        fresh.advance(_DRAW_BLOCK)
    raise AssertionError("more than 100 blocks drawn")


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_mixed_draws_match_the_generator(seed):
    """Half ``random()``, half ``integers(n)`` over every bound, for more than
    three blocks of words: the 32-bit draws leave a word's upper half
    carried across ``random()`` calls, and 2**31 + 11 rejects about half of
    its candidates."""
    plan = np.random.default_rng(99)
    draws, rng = ScalarDraws(seed), np.random.default_rng(seed)
    for _ in range(6_000):
        if plan.random() < 0.5:
            got, want = draws.random(), rng.random()
        else:
            n = BOUNDS[int(plan.integers(len(BOUNDS)))]
            got, want = draws.integers(n), rng.integers(n)
            assert 0 <= got < n
        assert type(got) in (int, float) and got == want
    assert blocks_drawn(draws, seed) >= 4
    # the streams continue level: one more draw of each kind
    assert draws.integers(5) == rng.integers(5) and draws.random() == rng.random()


def test_no_words_drawn_before_the_first_draw():
    draws = ScalarDraws(7)
    assert blocks_drawn(draws, 7) == 0
    draws.integers(1)
    assert blocks_drawn(draws, 7) == 0
    draws.random()
    assert blocks_drawn(draws, 7) == 1


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_integers_of_one_draws_nothing(seed):
    """``integers(1)`` is 0 and leaves the stream where it was, the carried
    upper half included, as on a ``Generator``."""
    calls = [5, 1, 1, 5, 1, 17, None, 1, 2**32, 1, None]  # None: random()
    draws = ScalarDraws(seed)
    got = [draws.random() if n is None else draws.integers(n) for n in calls]
    rng = np.random.default_rng(seed)
    assert got == [rng.random() if n is None else rng.integers(n) for n in calls]
    assert got[1] == got[2] == got[4] == got[7] == got[9] == 0
    skipping = np.random.default_rng(seed)
    assert [g for g, n in zip(got, calls) if n != 1] == [
        skipping.random() if n is None else skipping.integers(n) for n in calls if n != 1
    ]


@pytest.mark.parametrize("n", [0, -3, 2**32 + 1, 2**64])
def test_bound_out_of_range_rejected(n):
    with pytest.raises(ValueError):
        ScalarDraws(0).integers(n)


def test_reset_with_a_seed_restarts_the_stream():
    """``reset_id(seed=...)`` mid-episode, after channel misreads that leave
    an upper half carried, gives the trajectory of a fresh env of that
    seed."""
    params = EnvParams(
        seed=3,
        alpha=0.3,
        horizon=25,
        machine_degrade_p=0.2,
        contexts=(ContextConfig("m1"), ContextConfig("m2", False)),
    )
    actions = np.random.default_rng(5).integers(5, size=300).tolist()

    def run(env, first):
        out = [first]
        for a in actions:
            s, obs, reward, done = env.step_id(a)
            out.append((s, obs, reward, done))
            if done:
                out.append(env.reset_id())
        return out

    reseeded = WorkshopEnv(params)
    reseeded.reset_id()
    for a in actions[:20]:  # stop mid-episode with an upper half carried
        reseeded.step_id(a)
        if reseeded._rng._half is not None:
            break
    assert reseeded._rng._half is not None
    fresh = WorkshopEnv(replace(params, seed=9))
    assert run(reseeded, reseeded.reset_id(seed=9)) == run(fresh, fresh.reset_id())
