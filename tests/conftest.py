import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import coxfield as cf

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng(request):
    """A generator of the test's own, seeded from its node id.

    A test's inputs do not depend on which tests ran before it.
    """
    digest = hashlib.sha256(request.node.nodeid.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@pytest.fixture(scope="session")
def balanced_service():
    """Unit-mean hyperexponential (0.5, 0.5) / (2, 2/3) as a Coxian."""
    return cf.hyperexp_to_coxian(
        cf.HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0))
    )
