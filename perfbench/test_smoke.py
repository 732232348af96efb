"""The benchmark's own tests: every workload once at a tiny size.

    python3 -m pytest perfbench
"""

import pytest

import run


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke(name):
    run.smoke([name])
