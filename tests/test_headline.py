"""The headline's information channel, gated at TAR@FAR=1e-4 on paired runs (tests/paired.py).

Default federation (4 clients x 64 ids x 8 samples, d = 32), 10 rounds.
Neither claim is about privacy: phi-p releases noise-free cluster centers.
"""

import pytest

import paired

SEEDS = (1, 2, 3)
NO_SHARING = {"fed.mode": "phi"}
# every class center is its own released cluster
FULL_SHARING = {"fed.mode": "phi-p", "dplc.rho": 0.001, "dplc.min_cluster_size": 1,
                "dplc.max_queries": 64}
CAPS = {"fed.mode": "phi-p", "dplc.rho": 1.3, "dplc.min_cluster_size": 2, "dplc.max_queries": 64}


@pytest.mark.parametrize("seed", SEEDS)
def test_full_sharing_beats_no_sharing(seed):
    # headroom exists: phi reads 0.696 / 0.656 / 0.660 and full sharing gains
    # +0.132 / +0.134 / +0.160 on seeds 1-3
    assert paired.tar(seed, FULL_SHARING) > paired.tar(seed, NO_SHARING)


@pytest.mark.parametrize("seed", SEEDS)
def test_noise_free_caps_beat_as_many_random_rows(seed):
    # the caps carry information beyond their count: +0.042 / +0.121 / +0.048 over the
    # control on seeds 1-3
    assert paired.tar(seed, CAPS) > paired.control_tar(seed, CAPS)
