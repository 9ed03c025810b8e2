"""The genetic loops' draws against the stdlib calls they stand for.

``rulecf.draws`` follows CPython's ``Random.sample`` and ``_randbelow``
step for step. A Python release that changes either algorithm fails here,
by name, instead of silently changing every genetic search's output.
"""

import random

import pytest

from rulecf.draws import below, sample_picks

SEEDS = (0, 1, 7, 12345)


def ns_and_ks():
    """Every k <= n <= 48, which covers the pool for every k and the set
    method for k <= 5 at n > 21; and k <= 12 at n = 100 and 200, where the
    set method also serves 6 <= k (its set-size threshold is then 85)."""
    for n in range(49):
        yield from ((n, k) for k in range(n + 1))
    for n in (100, 200):
        yield from ((n, k) for k in range(13))


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_picks_is_random_sample(seed):
    for n, k in ns_and_ks():
        population = list(range(n))
        ref, rng = random.Random(seed + 1000 * n + k), random.Random(seed + 1000 * n + k)
        assert sample_picks(rng.getrandbits, population, k) == ref.sample(population, k)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_below_is_randrange_and_choice(seed):
    ref, rng = random.Random(seed), random.Random(seed)
    for n in range(1, 49):
        seq = [f"item{i}" for i in range(n)]
        assert seq[below(rng.getrandbits, n)] == ref.choice(seq)
        assert below(rng.getrandbits, n) == ref.randrange(n)
        assert rng.getstate() == ref.getstate()
    for n in (2**31 - 1, 2**32 + 1, 10**40):
        assert below(rng.getrandbits, n) == ref.randrange(n)
        assert rng.getstate() == ref.getstate()


def test_below_raises_instead_of_spinning():
    # getrandbits(0) is 0, so a bare rejection loop would never end at n == 0
    rng = random.Random(0)
    state = rng.getstate()
    for n in (0, -1, -5):
        with pytest.raises(ValueError):
            below(rng.getrandbits, n)
    assert rng.getstate() == state


def test_sample_picks_rejects_more_than_the_population():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        sample_picks(rng.getrandbits, [], 1)
    with pytest.raises(ValueError):
        sample_picks(rng.getrandbits, [1, 2], 3)
    with pytest.raises(ValueError):
        sample_picks(rng.getrandbits, [1, 2], -1)
    assert rng.getstate() == state


def test_sample_of_none_draws_nothing():
    # mutate asks for min(m, 0) new slots of a parent that holds them all
    rng = random.Random(0)
    state = rng.getstate()
    assert sample_picks(rng.getrandbits, [], 0) == []
    assert sample_picks(rng.getrandbits, [4, 8], 0) == []
    assert rng.getstate() == state
