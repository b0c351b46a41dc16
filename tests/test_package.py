"""The package's public API."""

import logcartier


def test_all_names_resolve_once():
    assert len(logcartier.__all__) == len(set(logcartier.__all__))
    missing = [name for name in logcartier.__all__ if not hasattr(logcartier, name)]
    assert missing == []
