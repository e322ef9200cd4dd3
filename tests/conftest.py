import pytest

from pendetect import errors


@pytest.fixture(autouse=True)
def _empty_decode_cache(monkeypatch):
    """Every test starts with no decoded checkpoint or stats file kept, so
    the cache tests hold in any order and no shared read-only model passes
    from one test to the next."""
    monkeypatch.setattr(errors, "_decoded", {})
