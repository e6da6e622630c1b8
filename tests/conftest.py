"""Models shared by several test files."""

import numpy as np
import pytest

from blochtopo.models import HoppingModel, build_builtin


def aliased_kane_mele():
    """kane_mele(lv=0.1) plus sin(32 pi k1) A, a term that breaks time reversal.

    A = diag(1, -1) (x) 1_2 satisfies U conj(A) U^dagger = A, so the odd
    factor sin(32 pi k1) makes the term time-reversal odd. It vanishes at
    every point of a grid with 16 or 32 points on the first axis, where a
    grid audit cannot see it.
    """
    base = build_builtin("kane_mele", {"lv": 0.1})
    a = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    hoppings = dict(base.hoppings)
    hoppings[(16, 0)] = -0.5j * a
    hoppings[(-16, 0)] = 0.5j * a
    return HoppingModel(
        lattice=base.lattice,
        fiber_dim=4,
        n_occ=2,
        hoppings=hoppings,
        time_reversal=base.time_reversal,
        space_reflection=None,
    )


@pytest.fixture
def aliased_model():
    return aliased_kane_mele()
