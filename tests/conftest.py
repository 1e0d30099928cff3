import numpy as np
import pytest
from hypothesis import settings

from metric_action_lab import euclidean, half_line, quantile_1d, tripod

SEED = 20240901

# ``--hypothesis-profile=ci``: the default settings, plus the
# ``@reproduce_failure`` blob of a failing draw
settings.register_profile("ci", print_blob=True)


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(params=["half_line", "euclidean1", "euclidean2", "tripod", "quantile4"])
def any_space(request):
    return {
        "half_line": half_line(),
        "euclidean1": euclidean(1),
        "euclidean2": euclidean(2),
        "tripod": tripod(),
        "quantile4": quantile_1d(4),
    }[request.param]
