import random

import pytest
from hypothesis import settings

from bredon import make_module

# More examples for the property tests, on request: ``--hypothesis-profile=ci``.
settings.register_profile("ci", max_examples=1000)


def random_cw_modules(count, seed, max_degree=12, max_mult=5):
    """Deterministic corpus of valid normal forms within the given bounds."""
    rng = random.Random(seed)
    modules = []
    for _ in range(count):
        free = []
        for _ in range(rng.randint(0, 5)):
            q = rng.randint(0, max_degree)
            p = rng.randint(q, max_degree)
            free.append((p, q, rng.randint(1, max_mult)))
        antipodal = []
        for _ in range(rng.randint(0, 4)):
            r = rng.randint(0, max_degree)
            n = rng.randint(0, max_degree - r)
            antipodal.append((r, n, rng.randint(1, max_mult)))
        modules.append(make_module(free, antipodal))
    return modules


@pytest.fixture(scope="session")
def module_corpus():
    return random_cw_modules(1200, seed=20240)
