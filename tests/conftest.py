from functools import lru_cache

import pytest


@pytest.fixture
def cold_cache(monkeypatch):
    """cold_cache(module, name) puts an empty cache in place of the module's
    functools-cached function: a fresh wrapper of the same function with the
    same cache parameters, which it returns. The module's own cache, entries
    and all, comes back after the test."""
    def swap(module, name):
        fn = getattr(module, name)
        fresh = lru_cache(**fn.cache_parameters())(fn.__wrapped__)
        monkeypatch.setattr(module, name, fresh)
        return fresh
    return swap
