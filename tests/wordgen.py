"""Seeded random word generators shared by unit and acceptance tests."""


def word_with_repeats(rng, total_repeats, k, cap=True, singles_max=20):
    """Random word with exactly ``total_repeats`` repeats.

    Each repeated value contributes multiplicity-1 repeats.  With
    ``cap`` every multiplicity stays <= k+1, which forces the
    non-constant extraction branches; without it taller spikes appear
    and the constant branch gets exercised too.
    """
    counts = []
    remaining = total_repeats
    while remaining > 0:
        step = rng.randint(1, min(k, remaining)) if cap else rng.randint(1, remaining)
        counts.append(1 + step)
        remaining -= step
    counts.extend([1] * rng.randint(0, singles_max))
    values = rng.sample(range(len(counts) * 3 + 1), len(counts))
    letters = [v for v, c in zip(values, counts) for _ in range(c)]
    rng.shuffle(letters)
    return tuple(letters)


def uniform_word(rng, length, max_letter):
    return tuple(rng.randint(0, max_letter) for _ in range(length))


def grid_word(rng, r, s):
    """Word of length r*s whose longest monotone subwords are exactly (r, s).

    s blocks in decreasing value ranges, each a strictly ascending run
    of r letters: non-decreasing subwords cannot leave a block, and
    non-increasing ones take at most one letter per block.
    """
    blocks = []
    base = 0
    for _ in range(s):
        vals = sorted(rng.sample(range(base, base + 3 * r), r))
        blocks.append(vals)
        base = vals[-1] + 1
    blocks.reverse()
    return tuple(v for block in blocks for v in block)


def shaped_word(rng, n, k, shape):
    """n^6 + 1 values, each exactly k+1 times: just over the extraction
    threshold, with no value k+2 times.

    interleaved: a uniform shuffle of the multiset; adjacent: each
    value's copies side by side; separated: k+1 independent
    permutations in a row, so every second occurrence follows every
    first one.
    """
    letters = rng.sample(range(10**6), n**6 + 1)
    if shape == "interleaved":
        w = [v for v in letters for _ in range(k + 1)]
        rng.shuffle(w)
    elif shape == "adjacent":
        w = [v for v in letters for _ in range(k + 1)]
    else:
        w = []
        for _ in range(k + 1):
            rng.shuffle(letters)
            w += letters
    return tuple(w)
