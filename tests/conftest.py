import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def radial_passes(monkeypatch):
    """The (xs, tops, scaled) of every `specfun._radial_pair` pass, through
    `spherical_radial_seq` and `maxwell_radial._pair_seqs` alike, as lists."""
    from tensorwave import maxwell_radial, specfun

    calls = []
    pair = specfun._radial_pair

    def counted(xs, tops, scaled=False):
        calls.append((np.asarray(xs).tolist(), np.asarray(tops).tolist(), scaled))
        return pair(xs, tops, scaled)

    for module in (specfun, maxwell_radial):
        monkeypatch.setattr(module, "_radial_pair", counted)
    return calls
