import pytest

from mpdqc import harness


@pytest.fixture
def fresh_view_layouts():
    """Clear the per-graph layout cache of the exact views before and after the test.

    A test that patches what a layout is built from (the pad layout, the
    blind-angle rule) needs a layout built under the patch, and no later
    test may read that layout.
    """
    harness._view_layout.cache_clear()
    yield
    harness._view_layout.cache_clear()
