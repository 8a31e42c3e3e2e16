"""Shared fixtures.

The grid plans of ``probing.shared`` builders live for the process, so a
test that monkeypatches a stencil or a residual could build a plan from the
patched function and hand it to every later test on that grid.  Such tests
start and end with the plans cleared: they build their own, as a fresh
process would, and leave none behind.
"""

import pytest

from nsfsim import probing


@pytest.fixture(autouse=True)
def _plans_of_patched_functions_stay_in_their_test(request):
    patched = "monkeypatch" in request.fixturenames
    if patched:
        probing.clear()
    yield
    if patched:
        probing.clear()
