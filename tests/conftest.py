import os

import numpy as np
import pytest

import nlsobolev as nl


@pytest.fixture(scope="session")
def p32():
    return nl.make_params(3, 2.0)


@pytest.fixture(scope="session")
def p31():
    return nl.make_params(3, 1.0)


@pytest.fixture(scope="session")
def p42():
    return nl.make_params(4, 2.0)


@pytest.fixture(scope="session")
def p64():
    return nl.make_params(6, 4.0)


@pytest.fixture(scope="session")
def grid_default():
    return nl.make_log_grid(1e-3, 1e3, 2048)


@pytest.fixture(scope="session")
def grid_1024():
    return nl.make_log_grid(1e-3, 1e3, 1024)


def bump_field(grid, center=0.0, width=1.0, amp=1.0):
    """Smooth compactly-concentrated test field (Gaussian bump in log r)."""
    vals = amp * np.exp(-0.5 * ((grid.x - center) / width) ** 2)
    return nl.RadialField(grid=grid, values=vals, tail_exponent=np.inf,
                          head_value=float(vals[0]))


def unit_bubble(p, grid, lam=1.0, c=1.0):
    return nl.bubble(p, nl.BubbleParams(c=c, lam=lam), grid)


def src_env():
    """Environment for a child Python process that imports this nlsobolev."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(nl.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env
