"""Fixtures shared by the test modules."""

import sys

import numpy as np
import pytest
import scipy.linalg

from eqopt.linalg import lapack

# The dense factorizations a solve may call. eqopt looks its LAPACK routines up
# on ``eqopt.linalg.lapack``, scipy's LAPACK extension module, so they are
# counted there, under the public name ``scipy.linalg.lapack`` gives them.
FACTORIZATIONS = [
    (np.linalg, "svd"),
    (np.linalg, "eigh"),
    (np.linalg, "eigvalsh"),
    (scipy.linalg, "svdvals"),
    (scipy.linalg, "qr"),
    (lapack, "dpotrf"),
    (scipy.linalg, "eigh"),
    (scipy.linalg, "eigvalsh"),
    (scipy.linalg, "lu_factor"),
    (scipy.linalg, "ldl"),
    (scipy.linalg, "solve"),
    (lapack, "dsytrf"),
    (lapack, "dgeqp3"),
    (lapack, "dgeqrt"),
]


def _counted_calls(monkeypatch, routines):
    """Names of the ``routines`` called, in order, but for LAPACK workspace
    queries (``lwork=-1``), which compute nothing."""
    calls = []
    for module, attr in routines:
        prefix = "scipy.linalg.lapack" if module is lapack else module.__name__

        def counted(*args, _fn=getattr(module, attr), _name=f"{prefix}.{attr}", **kwargs):
            if kwargs.get("lwork") != -1:
                calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def factorizations(monkeypatch):
    """Names of the factorizations called, in order.

    A LAPACK workspace query (``lwork=-1``) factorizes nothing and is not
    listed.
    """
    return _counted_calls(monkeypatch, FACTORIZATIONS)


@pytest.fixture
def reflector_applications(monkeypatch):
    """Names of the calls that apply a QR's Householder reflectors
    (``dormqr`` after ``dgeqp3``, ``dgemqrt`` after ``dgeqrt``), in order;
    a workspace query is not listed."""
    routines = [(lapack, "dormqr"), (lapack, "dgemqrt")]
    return _counted_calls(monkeypatch, routines)


@pytest.fixture
def input_checks(monkeypatch):
    """``(check, *args)`` of each ``as_matrix``/``as_vector`` call in eqopt,
    in order, the array itself left out: ``("as_vector", "b", 4)``."""
    calls = []

    def counting(name, real):
        def counted(v, *args):
            calls.append((name, *args))
            return real(v, *args)

        return counted

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("eqopt"):
            for name in ("as_matrix", "as_vector"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls
