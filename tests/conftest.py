import json
from importlib import resources

import numpy as np
import pytest

from anosovlab.functors import (Representation, build_representation,
                                direct_sum_rep, tau_representation)
from anosovlab.linalg import Subspace, orthonormalize


def apply_to_subspace(M: np.ndarray, V: Subspace) -> Subspace:
    """Image of a subspace under an invertible matrix, re-orthonormalized."""
    return Subspace(orthonormalize(M @ V.frame))


def load_example_config(name: str) -> dict:
    path = resources.files("anosovlab").joinpath("configs", f"{name}.json")
    return json.loads(path.read_text())


@pytest.fixture(scope="session")
def schottky_rep() -> Representation:
    """The shipped free two-generator SL(2,R) pair."""
    cfg = load_example_config("schottky_sl2")
    return build_representation(cfg["representation"])


@pytest.fixture(scope="session")
def tau3_rep(schottky_rep) -> Representation:
    return tau_representation(schottky_rep, 3)


@pytest.fixture(scope="session")
def tau4_rep(schottky_rep) -> Representation:
    return tau_representation(schottky_rep, 4)


@pytest.fixture(scope="session")
def tau5_plus_tau2_rep(schottky_rep) -> Representation:
    return direct_sum_rep(tau_representation(schottky_rep, 5),
                          tau_representation(schottky_rep, 2))


@pytest.fixture(scope="session")
def rotation_rep() -> Representation:
    """Elliptic-only representation: a single rotation generator."""
    from anosovlab.functors import representation_from_matrices
    th = 2 * np.pi / 7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return representation_from_matrices({"a": rot})
