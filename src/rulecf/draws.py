"""The stdlib's random draws, made straight from a ``getrandbits``.

``random.Random.sample``, ``choice`` and ``randrange`` pass through a
``Sequence`` check and two method layers on every call; in the genetic loops
that overhead costs about as much as the draws. The functions here follow
CPython's own algorithms step for step, so for the same generator they
return the same values and leave it in the same state as the stdlib calls
(``tests/test_draws.py`` pins this):

- ``below(getrandbits, n)`` is ``Random._randbelow(n)``, so
  ``seq[below(getrandbits, len(seq))]`` is ``choice(seq)`` and
  ``below(getrandbits, w)`` is ``randrange(w)``;
- ``sample_picks(getrandbits, population, k)`` is ``sample(population, k)``.
"""

from __future__ import annotations

from math import ceil, log
from typing import Callable, Sequence


def below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in ``[0, n)`` by ``Random._randbelow_with_getrandbits``:
    draw ``n.bit_length()`` bits until they fall below ``n``."""
    if n < 1:
        # getrandbits(0) is 0, so the loop below would never end at n == 0
        raise ValueError(f"cannot draw below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def sample_picks(getrandbits: Callable[[int], int], population: Sequence, k: int) -> list:
    """``k`` distinct positions' items of ``population`` in selection order,
    by ``Random.sample``: a shrinking pool while an ``n``-list is smaller
    than a ``k``-set, else redraws against the set of positions taken."""
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError(f"cannot sample {k} of {n}")
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    result = []
    if n <= setsize:
        pool = list(population)
        for i in range(n, n - k, -1):
            j = below(getrandbits, i)
            result.append(pool[j])
            pool[j] = pool[i - 1]
        return result
    selected: set = set()
    for _ in range(k):
        j = below(getrandbits, n)
        while j in selected:
            j = below(getrandbits, n)
        selected.add(j)
        result.append(population[j])
    return result

