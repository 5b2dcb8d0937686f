import eqopt


def test_public_names_resolve():
    missing = [name for name in eqopt.__all__ if not hasattr(eqopt, name)]
    assert not missing


def test_public_names_sorted_and_unique():
    assert eqopt.__all__ == sorted(set(eqopt.__all__))
