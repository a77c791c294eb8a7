import os
import sys

import pytest

# let test modules import sibling helpers (gradcheck) regardless of rootdir
sys.path.insert(0, os.path.dirname(__file__))

import auxgan.tensor as tensor  # noqa: E402


@pytest.fixture
def set_helper_min_params(monkeypatch):
    """A setter of HELPER_MIN_PARAMS that also unloads tracemalloc, which keeps the helper off."""
    def set_to(helper_min_params):
        monkeypatch.setattr(tensor, "HELPER_MIN_PARAMS", helper_min_params)
        monkeypatch.delitem(sys.modules, "tracemalloc", raising=False)
    return set_to
