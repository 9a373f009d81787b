"""Split and generation rules read straight off the sequence axioms: the tests' reference.

The package answers every split question with membership tests, on the
partial sums of a sequence or on a semigroup's bitmask, and prunes its
sequence generator.  Here a split walks the prefix of the sequence once per
candidate, and the generator tries every next term the axioms allow.  Nothing
in the package uses these, so a fault in the membership tests or in the prune
shows up as a disagreement with them.
"""


def arrow_member(target, terms):
    """target is one of the consecutive partial sums of ``terms``, or beyond all of them."""
    total = 0
    for t in terms:
        total += t
        if target == total:
            return True
    return target > total


def split_keeps_axioms(xs, i, a):
    """Does replacing x_i (1-based) by (a, x_i - a) keep the axioms around the split?"""
    if i == 1:
        return 2 * a <= xs[0]
    prefix = xs[i - 2 :: -1]
    if not arrow_member(a, prefix):
        return False
    d = xs[i - 1] - 2 * a
    return d == 0 or arrow_member(d, prefix)


def splits_by_prefix_walk(xs):
    """(i, a) for every in-range split value a of every term that keeps the axioms."""
    return [
        (i, a)
        for i, x in enumerate(xs, start=1)
        for a in range(2, x)
        if split_keeps_axioms(xs, i, a)
    ]


def unpruned_sequences_with_total(total):
    """Every valid sequence summing to ``total`` as tuples, lexicographic: after a
    prefix with running sum r the next term is a suffix partial sum of the
    prefix or any value in (r, total - r], and only the total prunes."""
    if total < 2:
        return []
    out, prefix = [], []

    def extend(run):
        if run == total:
            out.append(tuple(prefix))
            return
        if prefix:
            candidates = []
            acc = 0
            for t in reversed(prefix):
                acc += t
                if run + acc <= total:
                    candidates.append(acc)
            candidates.extend(range(run + 1, total - run + 1))
        else:
            candidates = range(2, total + 1)
        for y in candidates:
            prefix.append(y)
            extend(run + y)
            prefix.pop()

    extend(0)
    return out
