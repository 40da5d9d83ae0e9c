"""Paired simulation runs for the headline comparisons, at the paper's FAR.

A run resolves a config the way `capfed simulate` does,
cli.parse_config(None, overrides), draws the federation from
derive_rng(seed, "synth") and runs federation.run_federation; its metric is
the last round's TAR at FAR 1e-4, over 7,000 positive and 100,000 negative
pairs. Runs of one seed share the federation and the eval pairs, so their
difference is a paired one.

The control replaces every foreign cluster a client receives by as many
uniform unit rows, drawn from default_rng([seed, stream]): it keeps the
release count and carries nothing of the other clients' data. Its TAR is
averaged over streams.
"""

import contextlib

import numpy as np

from capfed import cli, federation, synth
from capfed.geometry import sample_uniform_directions

FAR = 1e-4
GATE = {"fed.rounds": 10, "eval.positives": 7000, "eval.negatives": 100_000,
        "eval.far_targets": (FAR,)}


@contextlib.contextmanager
def random_foreign_centers(seed: int, stream: int):
    """Patch federation.foreign_centers to return uniform rows, as many as the real call."""
    real = federation.foreign_centers
    rng = np.random.default_rng([seed, stream])

    def control(released, own, dim, dtype):
        count = real(released, own, dim, dtype).shape[0]
        return sample_uniform_directions(count, dim, rng).astype(dtype)

    federation.foreign_centers = control
    try:
        yield
    finally:
        federation.foreign_centers = real


def tar(seed: int, overrides: dict) -> float:
    """The last round's TAR at FAR of one run of the gate's setting plus overrides."""
    cfg = cli.parse_config(None, {**GATE, **overrides, "seed": seed})
    fed = synth.generate_federation(cfg.synth_params, federation.derive_rng(cfg.seed, "synth"))
    report = federation.run_federation(cfg.fed_config, fed, cfg.seed)
    return report.rounds[-1].tar_by_far[FAR]


def control_tar(seed: int, overrides: dict, streams: int = 2) -> float:
    """tar of the same runs with random foreign rows, averaged over streams."""
    runs = []
    for stream in range(streams):
        with random_foreign_centers(seed, stream):
            runs.append(tar(seed, overrides))
    return float(np.mean(runs))
