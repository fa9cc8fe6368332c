"""Benchmark data-generating processes for the simulation harness.

Seven regression functions on the unit cube (one to three covariates),
sampled with uniform covariates and standard normal noise.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidModel, check_floats, check_whole


def _phi(t):
    return np.exp(-0.5 * t**2) / np.sqrt(2.0 * np.pi)


def _model1(X):
    t = 2.0 * X[:, 0] - 1.0
    return np.sin(0.5 * np.pi * t) / (1.0 + 2.0 * t**2 * (np.sign(t) + 1.0))


def _model2(X):
    t = 2.0 * X[:, 0] - 1.0
    return np.sin(1.5 * np.pi * t) / (1.0 + 18.0 * t**2 * (np.sign(t) + 1.0))


def _model3(X):
    x = X[:, 0]
    return 2.0 * x - 1.0 + 5.0 * _phi(20.0 * x - 10.0)


def _model4(X):
    return np.sin(5.0 * X[:, 0]) * np.sin(10.0 * X[:, 1])


def _model5(X):
    return (1.0 - (4.0 * X[:, 0] - 2.0) ** 2) ** 2 * np.sin(5.0 * X[:, 1]) / 5.0


def _model6(X):
    return (
        (1.0 - (4.0 * X[:, 0] - 2.0) ** 2) ** 2
        * (2.0 * X[:, 1] - 1.0)
        * (X[:, 2] - 0.5)
    )


def _tau(x):
    c = x - 0.5
    return c + 8.0 * c**2 + 6.0 * c**3 - 30.0 * c**4 - 30.0 * c**5


def _model7(X):
    return _tau(X[:, 0]) * _tau(X[:, 1]) * _tau(X[:, 2])


_MODELS = {
    1: (1, _model1),
    2: (1, _model2),
    3: (1, _model3),
    4: (2, _model4),
    5: (2, _model5),
    6: (3, _model6),
    7: (3, _model7),
}


def _model(model_id):
    """(covariate dimension, regression function) of a model id."""
    mid = check_whole(model_id, "model id", 1, InvalidModel)
    if mid not in _MODELS:
        raise InvalidModel(f"model id must be 1..7, got {model_id!r}")
    return _MODELS[mid]


def dgp_dim(model_id):
    """Covariate dimension of a model."""
    return _model(model_id)[0]


def dgp_eval(model_id, x):
    """Regression function of ``model_id`` at points ``x`` ((n, d) or (d,))."""
    d, fn = _model(model_id)
    X = check_floats(x, "points")
    if X.shape[1] != d:
        raise InvalidModel(
            f"model {model_id} expects {d} covariates, got {X.shape[1]}"
        )
    return fn(X)


def dgp_sample(model_id, n, seed):
    """Draw (X, y): uniform covariates, unit normal errors.

    ``seed`` may be an integer, a sequence of integers, or a Generator;
    replications pass (master_seed, rep_index) so streams never collide.
    """
    d = dgp_dim(model_id)
    n = check_whole(n, "n", 1, InvalidModel)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    X = rng.random((n, d))
    y = dgp_eval(model_id, X) + rng.standard_normal(n)
    return X, y
