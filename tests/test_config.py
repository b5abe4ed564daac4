"""Properties of the shared central-difference stencil.

``central_diff`` evaluates the whole stencil in one call; these tests hold
it to the per-coordinate loop it replaces, written out here as the
reference: bitwise equal values, one call of ``func``, and the same first
offending point when ``func`` raises.  ``fd_steps`` refuses a non-finite
coordinate, naming its row.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sigembed.config import FD_STEP, central_diff, fd_steps
from sigembed.errors import DomainError, NumericalError
from sigembed.metric import metric_derivatives_grid, toy_model
from sigembed.minkowski import jacobian_grid, psi_toy_map


def loop_central_diff(func, coords, steps):
    """One pair of calls of ``func`` per coordinate, in the order
    +e_0, -e_0, +e_1, -e_1, ..."""
    columns = []
    for k in range(coords.shape[1]):
        up = coords.copy()
        dn = coords.copy()
        up[:, k] += steps[:, k]
        dn[:, k] -= steps[:, k]
        diff = np.asarray(func(up)) - np.asarray(func(dn))
        width = (2.0 * steps[:, k]).reshape((-1,) + (1,) * (diff.ndim - 1))
        columns.append(diff / width)
    return np.stack(columns, axis=-1)


def scalar_field(c):
    """Row-wise, (m,) output."""
    return np.sin(c[:, 0]) * np.exp(0.1 * c[:, -1]) + c.prod(axis=1)


def vector_field(c):
    """Row-wise, (m, 3) output; the arctan2 column sees the sign of a zero
    coordinate, so a stencil that turns -0.0 into +0.0 shows."""
    return np.stack([np.cos(c[:, 0] * c[:, 1]), (c ** 3).sum(axis=1),
                     np.arctan2(c[:, 1], -1.0)], axis=1)


def counted(func):
    calls = []

    def wrapped(c):
        calls.append(c.shape)
        return func(c)

    return wrapped, calls


coordinates = st.integers(1, 50).flatmap(lambda m: st.integers(2, 4).flatmap(
    lambda n: arrays(float, (m, n), elements=st.floats(-10.0, 10.0))))


@settings(max_examples=150, deadline=None)
@given(coords=coordinates, func=st.sampled_from([scalar_field, vector_field]))
@example(coords=np.array([[1.0, -0.0, 2.0], [-0.0, 0.0, -3.5]]), func=vector_field)
def test_one_call_bitwise_equal_to_loop(coords, func):
    steps = fd_steps(coords)
    wrapped, calls = counted(func)
    got = central_diff(wrapped, coords, steps)
    want = loop_central_diff(func, coords, steps)
    m, n = coords.shape
    assert calls == [(2 * n * m, n)]
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(2, 4))
def test_domain_error_names_the_loop_point(data, n):
    m = data.draw(st.integers(1, 20))
    coords = np.column_stack([
        data.draw(arrays(float, m, elements=st.floats(-0.5, 10.0))),
        data.draw(arrays(float, (m, n - 1), elements=st.floats(-5.0, 5.0))),
    ])
    edge = data.draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True))
    # t = -1 + f step with f around 1/2: |t| < 1, so the step is
    # FD_STEP and only t - step lies below -1; distinct f tell the
    # edge rows apart in the message
    fractions = data.draw(arrays(float, len(edge), elements=st.floats(0.25, 0.75)))
    coords[edge, 0] = -1.0 + fractions * FD_STEP
    steps = fd_steps(coords)
    value = psi_toy_map(n).value
    with pytest.raises(DomainError) as stacked:
        central_diff(value, coords, steps)
    with pytest.raises(DomainError) as looped:
        loop_central_diff(value, coords, steps)
    assert str(stacked.value) == str(looped.value)


def test_non_finite_coordinate_is_a_numerical_error_naming_its_row():
    with pytest.raises(NumericalError, match=r"non-finite coordinates \[inf  0\.\]"):
        jacobian_grid(psi_toy_map(2), [[np.inf, 0.0]], "finite_difference")
    model = dataclasses.replace(toy_model(2), derivatives=None)
    with pytest.raises(NumericalError, match=r"non-finite coordinates \[nan  1\.\]"):
        metric_derivatives_grid(model, [[0.5, 0.0], [np.nan, 1.0], [1.0, np.inf]])
