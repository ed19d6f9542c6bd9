"""Seeded near-miss words: construction words one repeat past the bound.

``build(n, 1).s`` has n^6 repeats, every value exactly twice, and holds
no member of ``family(n, 1)``.  Doubling every value and inserting one
fresh odd value x at two positions adds one repeat, so the word has
n^6 + 1 repeats and no value three times: it holds a member of
``family(n, 1)`` other than the constant.
"""

import random

from wordpat.construction import build


def near_miss(s, x, i, j):
    """``s`` with every value doubled and x at the 0-based positions i < j."""
    doubled = [2 * v for v in s]
    return tuple(doubled[:i] + [x] + doubled[i : j - 1] + [x] + doubled[j - 1 :])


def near_miss_words(n, count, seed):
    """``count`` seeded near-miss words of ``build(n, 1).s``, as
    (x, i, j, word); x is any odd value from 1 to 2 n^6 + 1."""
    s = build(n, 1).s
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        x = 2 * rng.randint(0, n**6) + 1
        i, j = sorted(rng.sample(range(len(s) + 2), 2))
        words.append((x, i, j, near_miss(s, x, i, j)))
    return words


def near_miss_sample(n, share, seed):
    """A seeded ``share`` of every near-miss word of ``build(n, 1).s``,
    as (x, i, j, word): each odd x from 1 to 2 n^6 + 1 and each pair of
    positions i < j is kept with probability ``share``."""
    s = build(n, 1).s
    rng = random.Random(seed)
    for x in range(1, 2 * n**6 + 2, 2):
        for i in range(len(s) + 2):
            for j in range(i + 1, len(s) + 2):
                if rng.random() < share:
                    yield x, i, j, near_miss(s, x, i, j)
