"""Shared fixtures."""

import pytest


@pytest.fixture
def post_inits(monkeypatch):
    """post_inits(cls) -> the list of cls instances whose __post_init__ runs
    from then on, in order; the check itself still runs."""

    def watch(cls):
        checked = []
        original = cls.__post_init__

        def recording(self):
            checked.append(self)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", recording)
        return checked

    return watch
