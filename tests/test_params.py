import math

import numpy as np
import pytest

from impuritybound.errors import DomainError, PreconditionError
from impuritybound.params import (LambdaArgs, LambdaResult, ModelParams,
                                  SupSearchConfig, as_momentum,
                                  default_a_const)


def test_as_momentum_accepts_triples():
    v = as_momentum([1.0, -2.0, 3.0])
    assert v.shape == (3,)
    assert v[1] == -2.0


@pytest.mark.parametrize("bad", [[1.0, 2.0], [[1, 2, 3]], [np.nan, 0, 0]])
def test_as_momentum_rejects(bad):
    with pytest.raises(DomainError):
        as_momentum(bad)


def test_default_a_const_values():
    assert default_a_const(1.0) == pytest.approx(1.0 / 3.0)
    assert default_a_const(2.0) == pytest.approx(0.25)


def test_model_params_validation():
    with pytest.raises(DomainError):
        ModelParams(m=-1.0)
    with pytest.raises(DomainError):
        ModelParams(m=1.0, n=0)
    with pytest.raises(DomainError):
        ModelParams(m=1.0, ell=0.0)
    for bad in ({"m": math.inf}, {"m": math.nan}, {"ell": math.inf},
                {"alpha": math.inf}, {"alpha": math.nan}, {"mu": math.nan},
                {"mu": -math.inf}):
        with pytest.raises(DomainError):
            ModelParams(**{"m": 1.0, **bad})
    # the coupling and the spectral shift may be negative
    ModelParams(m=1.0, alpha=-1.0, mu=-2.0)


def test_lambda_args_fills_a_const():
    args = LambdaArgs(s_tilde=(1, 0, 0), k_vec=(0, 0, 0), q_mu=1.0, m=2.0)
    assert args.a_const == pytest.approx(0.25)
    with pytest.raises(DomainError):
        LambdaArgs(s_tilde=(1, 0, 0), k_vec=(0, 0, 0), q_mu=-1.0, m=1.0)
    for bad in ({"q_mu": math.nan}, {"delta": math.nan}, {"ell": math.inf},
                {"m": math.inf}, {"q_mu": math.inf}):
        with pytest.raises(DomainError):
            LambdaArgs(**{"s_tilde": (1, 0, 0), "k_vec": (0, 0, 0),
                          "q_mu": 1.0, "m": 1.0, **bad})


def test_sup_search_config_gauge():
    # the search always fixes |s_tilde| = 1; there is no gauge knob
    with pytest.raises(TypeError):
        SupSearchConfig(gauge="s_tilde")
    for bad in ({"quad_tol": 0.0}, {"quad_tol": math.inf},
                {"m_tol": math.nan}, {"m_tol": -math.inf}):
        with pytest.raises(PreconditionError):
            SupSearchConfig(**bad)


def test_lambda_result_validation():
    with pytest.raises(DomainError):
        LambdaResult(value=-0.1)
