"""The one range rule, ``errors.check_range``, at every site that checks a caller's number."""

import ast
import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import dpca
from dpca import eigencore as ec
from dpca import methods, synthgen
from dpca.datamodel import CovarianceEstimate, DataMatrix, center, fit_inputs, sample_covariance
from dpca.errors import InvalidInputError, check_range

from conftest import random_spd

_RNG = np.random.default_rng(7)
_TARGET = DataMatrix(_RNG.standard_normal((40, 5)))
_BACKGROUND = DataMatrix(_RNG.standard_normal((60, 5)))
_A, _B = random_spd(_RNG, 5), random_spd(_RNG, 5)
# wide data: dPCA reduces to the span of the samples, so its floor is checked before the QR
_WIDE = fit_inputs(DataMatrix(_RNG.standard_normal((12, ec.TOP_D_MIN_DIM + 4))),
                   [DataMatrix(_RNG.standard_normal((16, ec.TOP_D_MIN_DIM + 4)))], ridge=0.5)
_SPEC = synthgen.FactorModelSpec(
    shared_basis=np.eye(6)[:, :2], specific_basis=np.eye(6)[:, 2:3],
    target_mean=np.zeros(6), background_mean=np.zeros(6),
    background_coeff_std=np.ones(2), shared_coeff_std=np.ones(2),
    specific_coeff_std=np.ones(1), noise_std=0.1)


def _cov(mat):
    return CovarianceEstimate(matrix=mat, sample_count=0)


def _model(field, value):
    return methods.ComponentModel(method="cpca" if field == "alpha" else "dpca",
                                  components=np.eye(2), eigenvalues=np.array([2.0, 1.0]),
                                  target_mean=np.zeros(2), **{field: value})


# site -> (the call with the number under test, the name the error gives, lo)
SITES = {
    "sample_covariance": (lambda v: sample_covariance(center(_TARGET), ridge=v), "ridge", 0),
    "fit_inputs": (lambda v: fit_inputs(_TARGET, [_BACKGROUND], ridge=v), "ridge", 0),
    "cpca_fit": (lambda v: methods.cpca_fit(_cov(_A), _cov(_B), v, 2), "alpha", 0),
    "cpca_select_alphas": (lambda v: methods.cpca_select_alphas(_cov(_A), _cov(_B),
                                                                 [0.1, v, 10.0], 2, 2),
                           "alpha", 0),
    "dpca_fit": (lambda v: methods.dpca_fit(_cov(_A), _cov(_B), 2, floor_rel=v), "floor_rel", 0),
    "dpca_fit_wide": (lambda v: methods.dpca_fit(*_WIDE.covs, 2, floor_rel=v), "floor_rel", 0),
    "fit": (lambda v: methods.fit("dpca", fit_inputs(_TARGET, [_BACKGROUND]), 2, floor_rel=v),
            "floor_rel", 0),
    "generalized_eig": (lambda v: ec.generalized_eig(_A, _B, 2, floor_rel=v), "floor_rel", 0),
    "whitening_factor": (lambda v: ec.whitening_factor(_B, floor_rel=v), "floor_rel", 0),
    **{f"ComponentModel.{field}": (lambda v, field=field: _model(field, v), field, 0)
       for field in ("alpha", "ridge_target", "ridge_background", "floor_rel")},
    **{f"FactorModelSpec.{field}": (
        lambda v, field=field: dataclasses.replace(
            _SPEC, **{field: [v] + [1.0] * (len(getattr(_SPEC, field)) - 1)}),
        f"{field}[0]", 0)
       for field in ("background_coeff_std", "shared_coeff_std", "specific_coeff_std")},
    "FactorModelSpec.noise_std": (lambda v: dataclasses.replace(_SPEC, noise_std=v),
                                  "noise_std", 0),
    "spread_offsets": (lambda v: synthgen.spread_offsets(2, 1, v), "scale", -np.inf),
}


@pytest.fixture
def solves(monkeypatch):
    """A list that gains an entry for every eigensolve and every span QR."""
    calls = []
    for name in ("_top_pairs", "_span_qr"):
        def counted(*args, real=getattr(ec, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(ec, name, counted)
    return calls


# 10**400 passes the rule but no double holds it: each site turns its number into one
BAD = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "-1": -1, "True": True, "x": "x",
       "10**400": 10**400}


class TestCheckRange:
    @pytest.mark.parametrize("site,bad", [
        pytest.param(site, value, id=f"{key}-{site}") for site in SITES
        for key, value in BAD.items() if not (key == "-1" and SITES[site][2] < 0)])
    def test_every_site_rejects_by_name_before_any_solve(self, solves, site, bad):
        call, name, _ = SITES[site]
        with pytest.raises(InvalidInputError, match=re.escape(name) + " must be a finite number"):
            call(bad)
        assert solves == []

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("good", [0, 1e300])
    def test_every_site_accepts(self, site, good):
        call, _, _ = SITES[site]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a floor of 1e300 floors every eigenvalue
            call(good)

    def test_returns_the_value_unchanged(self):
        for value in (0, 2.5, 10**30, np.float32(3.0), np.int64(4)):
            assert check_range("x", value) is value
        assert check_range("x", -2.0, -np.inf) == -2.0

    @pytest.mark.parametrize("value,lo,hi,message", [
        (20, 1, 15, "--select must be a finite number in 1..15, got 20"),
        (None, 0, np.inf, "--select must be a finite number >= 0, got None"),
        (np.nan, -np.inf, np.inf, "--select must be a finite number >= -inf, got nan"),
        ("3", 0, np.inf, "--select must be a finite number >= 0, got '3'"),
    ])
    def test_message(self, value, lo, hi, message):
        with pytest.raises(InvalidInputError) as exc:
            check_range("--select", value, lo, hi)
        assert str(exc.value) == message


def test_range_message_formed_in_errors_alone():
    """Only ``errors`` spells the range message; every other module calls ``check_range``."""
    formed = set()
    for path in sorted(Path(dpca.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        if any(isinstance(node, ast.Constant) and id(node) not in docstrings
               and "must be a finite number" in str(node.value) for node in ast.walk(tree)):
            formed.add(path.stem)
    assert formed == {"errors"}
    assert not hasattr(methods, "_scalar") and not hasattr(ec, "_check_floor_rel")
