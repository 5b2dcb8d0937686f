"""Fixtures shared by the test modules."""

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

# The dense factorizations a solve may call, with the name it is counted under.
FACTORIZATIONS = [
    (np.linalg, "svd"),
    (np.linalg, "eigh"),
    (np.linalg, "eigvalsh"),
    (scipy.linalg, "svdvals"),
    (scipy.linalg, "qr"),
    (scipy.linalg.lapack, "dpotrf"),
    (scipy.linalg, "eigh"),
    (scipy.linalg, "eigvalsh"),
    (scipy.linalg, "lu_factor"),
    (scipy.linalg, "ldl"),
    (scipy.linalg, "solve"),
    (scipy.linalg.lapack, "dsytrf"),
    (scipy.linalg.lapack, "dgeqp3"),
    (scipy.linalg.lapack, "dgeqrt"),
]


@pytest.fixture
def factorizations(monkeypatch):
    """Names of the factorizations called, in order.

    A LAPACK workspace query (``lwork=-1``) factorizes nothing and is not
    listed.
    """
    calls = []
    for module, attr in FACTORIZATIONS:
        def counted(*args, _fn=getattr(module, attr), _name=f"{module.__name__}.{attr}", **kwargs):
            if kwargs.get("lwork") != -1:
                calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    return calls
