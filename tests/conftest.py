"""Shared reference models used across the test suite."""

import math

import pytest

import pio.model
from pio.model import make_model


@pytest.fixture(scope="session")
def fixture_a():
    # constant weights: channel ranges {2} and {3}
    return make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"])


@pytest.fixture(scope="session")
def fixture_b():
    # identity weights on both channels: ranges fill [0, 1]
    return make_model((0, 1), (0, 1), ["1"], ["t"], ["1"], ["t"])


@pytest.fixture(scope="session")
def fixture_c():
    # step weight on channel 1, channel 2 switched off
    return make_model(
        (0, 1), (0, 1), ["1"], ["piecewise([0,0.5]:2; [0.5,1]:4)"], ["1"], ["0"]
    )


@pytest.fixture(scope="session")
def oracle_b_200(fixture_b):
    # several tests need this discretization; share it.  Its 40000 grid points
    # reduce to an eigensolve of size 200 + 199 = 399, so it costs hundredths
    # of a second
    from pio.oracle import nystrom_matrix, oracle_eigs

    return oracle_eigs(nystrom_matrix(fixture_b, 200, 200))


def fixture_a_dict():
    return {
        "domain": {"x": [0.0, 1.0], "y": [0.0, 1.0]},
        "channel1": {"basis": ["1"], "weights": ["2"]},
        "channel2": {"basis": ["1"], "weights": ["3"]},
    }


def fixture_b_dict():
    return {
        "domain": {"x": [0.0, 1.0], "y": [0.0, 1.0]},
        "channel1": {"basis": ["1"], "weights": ["t"]},
        "channel2": {"basis": ["1"], "weights": ["t"]},
    }


def fixture_c_dict():
    return {
        "domain": {"x": [0.0, 1.0], "y": [0.0, 1.0]},
        "channel1": {"basis": ["1"], "weights": ["piecewise([0,0.5]:2; [0.5,1]:4)"]},
        "channel2": {"basis": ["1"], "weights": ["0"]},
    }


def legendre_source(k, interval):
    """Expression text of the degree-``k`` orthonormal polynomial on the interval, in powers of
    ``(2t - lo - hi)/(hi - lo)`` from ``_leg2poly``'s coefficients: parsed, the reference that
    the ``legendre(k)`` built from those coefficients is checked against."""
    lo, hi = (float(v) for v in interval)
    shift = (lo + hi) / (hi - lo)
    u = f"({2.0 / (hi - lo)!r}*t {'-' if shift >= 0 else '+'} {abs(shift)!r})"
    terms = []
    for power, c in enumerate(pio.model._leg2poly(k, math.sqrt((2.0 * k + 1.0) / (hi - lo)))):
        if c != 0.0:
            terms.append(repr(c) + ("" if power == 0 else f"*{u}" if power == 1 else f"*{u}^{power}"))
    return " + ".join(terms)
