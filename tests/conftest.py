import pytest

from pendetect import preprocess
from pendetect.nn import model


@pytest.fixture(autouse=True)
def _empty_decode_caches(monkeypatch):
    """Every test starts with no decoded checkpoint or stats file kept, so
    the cache tests hold in any order and no shared read-only model passes
    from one test to the next."""
    monkeypatch.setattr(model, "_last_decoded", None)
    monkeypatch.setattr(preprocess, "_last_decoded", None)
