"""Set-up cost as a user pays it: a fresh interpreter imports gdm and its
CLI and finishes one tiny segmentation. run.py times this process from
start to exit; it expects PYTHONPATH to reach the package sources."""

import numpy as np

import gdm
import gdm.cli  # noqa: F401  (the CLI's import cost is part of set-up)

data = np.random.default_rng(0).normal(size=(3, 8))
result = gdm.gdm(data, gdm.GdmConfig(n_clusters=2, seed=0))
if result.labels.shape != (8,):
    raise SystemExit("warm-up segmentation returned %r labels" % (result.labels.shape,))
