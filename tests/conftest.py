"""Shared randomized generators for the exact-arithmetic test suite.

Everything is driven by seeded ``random.Random`` instances so failures are
reproducible; hypothesis-based tests configure their own profile below.
"""

import contextlib
import random
import signal
from fractions import Fraction

from hypothesis import settings

from latquot.exactnum import MatQ, MatZ
from latquot.lattice_core import Lattice

settings.register_profile("exact", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("exact")
# a wider random search, for a CI rerun of chosen files: pytest --hypothesis-profile=fuzz
settings.register_profile("fuzz", derandomize=False, max_examples=400, deadline=None)


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test with TimeoutError instead of hanging past ``seconds``."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# rational rotation blocks: (a, b, c) with a^2 + b^2 = c^2
PYTHAGOREAN_TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29)]


def rand_fraction(rng: random.Random, height: int = 5) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def rand_matq(rng: random.Random, n: int, height: int = 5) -> MatQ:
    return MatQ([[rand_fraction(rng, height) for _ in range(n)] for _ in range(n)])


def rand_invertible(rng: random.Random, n: int, height: int = 5) -> MatQ:
    while True:
        m = rand_matq(rng, n, height)
        if m.det() != 0:
            return m


def rand_lattice(rng: random.Random, n: int, height: int = 5) -> Lattice:
    return Lattice(rand_invertible(rng, n, height))


def rand_unimodular(rng: random.Random, n: int, ops: int = 8, kmax: int = 3) -> MatZ:
    """Random determinant-+1 integer matrix: a product of elementary shears."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        k = rng.randint(-kmax, kmax)
        for r in range(n):
            rows[r][i] += k * rows[r][j]
    return MatZ(rows)


def rand_unimodular_pm(rng: random.Random, n: int, ops: int = 8, kmax: int = 3) -> MatZ:
    """Random unimodular matrix with determinant +1 or -1."""
    u = rand_unimodular(rng, n, ops, kmax)
    if rng.random() < 0.5:
        # negating one row flips the sign of the determinant
        rows = [list(r) for r in u.rows]
        i = rng.randrange(n)
        rows[i] = [-x for x in rows[i]]
        return MatZ(rows)
    return u


def _rotation_block(rng: random.Random, n: int) -> MatQ:
    a, b, c = rng.choice(PYTHAGOREAN_TRIPLES)
    if rng.random() < 0.5:
        b = -b
    i, j = rng.sample(range(n), 2)
    rows = [[Fraction(1) if r == s else Fraction(0) for s in range(n)] for r in range(n)]
    rows[i][i] = Fraction(a, c)
    rows[i][j] = Fraction(-b, c)
    rows[j][i] = Fraction(b, c)
    rows[j][j] = Fraction(a, c)
    return MatQ(rows)


def _signed_permutation(rng: random.Random, n: int, special: bool) -> MatQ:
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice([1, -1]) for _ in range(n)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, p in enumerate(perm):
        rows[p][i] = Fraction(signs[i])
    m = MatQ(rows)
    if special and m.det() < 0:
        rows = [list(r) for r in m.rows]
        rows[0] = [-x for x in rows[0]]
        m = MatQ(rows)
    return m


def rand_orthogonal(rng: random.Random, n: int, special: bool = False) -> MatQ:
    """Random rational orthogonal matrix from rotation blocks and signed permutations."""
    m = _signed_permutation(rng, n, special)
    for _ in range(rng.randint(1, 3)):
        if n > 1:
            m = _rotation_block(rng, n) @ m
    if special and m.det() < 0:
        rows = [list(r) for r in m.rows]
        rows[0] = [-x for x in rows[0]]
        m = MatQ(rows)
    return m
