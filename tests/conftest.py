"""Shared test set-up, and the frame builders the test modules import."""

import math

import numpy as np
import pytest


@pytest.fixture
def hypothesis_settings():
    """Settings for a property test, given its max_examples: derandomized,
    no example database and no deadline, so a run is deterministic and
    writes no .hypothesis/ directory. Skips when hypothesis is missing."""
    hypothesis = pytest.importorskip("hypothesis")

    def settings(max_examples):
        return hypothesis.settings(
            max_examples=max_examples, deadline=None, derandomize=True, database=None
        )

    return settings


@pytest.fixture(scope="session")
def chain_calibration():
    """calibrate_chain(PlanarChain(masses, lengths, physics_dt=...), config,
    seed=seed), memoized for the session on exactly those inputs, so tests
    that calibrate the same chain run it once. The result is shared: read
    it, do not change it."""
    from extremctl.impedance import calibrate_chain
    from extremctl.plant import PlanarChain

    memo = {}

    def calibrated(masses, lengths, physics_dt, config, seed):
        key = (tuple(masses), tuple(lengths), physics_dt, config, seed)
        if key not in memo:
            chain = PlanarChain(masses=np.array(masses, dtype=float),
                                lengths=np.array(lengths, dtype=float), physics_dt=physics_dt)
            memo[key] = calibrate_chain(chain, config, seed=seed)
        return memo[key]

    return calibrated


IDENTITY = (1.0, 0.0, 0.0, 0.0)


def make_links(poses):
    """A LinkSet from six poses in LINKS order, or a {link: pose} dict.
    Each pose is a (q, t) pair or a row of 7 values, translation x, y, z
    then quaternion w, x, y, z; LinkSet.from_array validates them."""
    from extremctl.mapping import LINKS, LinkSet

    if isinstance(poses, dict):
        poses = [poses[name] for name in LINKS]
    rows = [list(p) if len(p) == 7 else [*p[1], *p[0]] for p in poses]
    return LinkSet.from_array(rows)


def random_links(rng):
    """Six random poses: per link a normalized Gaussian quaternion, then
    a Gaussian translation, drawn as one (6, 7) block in that order."""
    from extremctl.mapping import LinkSet

    draws = rng.normal(size=(6, 7))
    for row in draws:
        row[:4] /= math.sqrt(row[:4].dot(row[:4]))
    return LinkSet.from_array(np.concatenate((draws[:, 4:], draws[:, :4]), axis=1))


def quat_angle(q):
    """Rotation magnitude of a unit quaternion in radians, in [0, pi]."""
    return 2.0 * math.atan2(math.sqrt(q[1] ** 2 + q[2] ** 2 + q[3] ** 2), abs(q[0]))
