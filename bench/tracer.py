"""Spans and counters kept in memory, and a stage-by-stage replay of gdm.

The spans wrap the benchmark's own calls into the public functions of
each gdm module; nothing inside the package is instrumented. A span is
(id, name, start, end, parent id, scene id). Counters are per-scene sums.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

from gdm.exceptions import DegenerateClusterError
from gdm.objective import (
    gd_gradient,
    global_dimension_soft,
    hard_cluster_dims,
    pnorm,
)
from gdm.optimizer import (
    descend,
    genetic_refine,
    greedy_merge_init,
    indicator_membership,
    threshold,
)


class NullTracer:
    """Tracing switched off: spans and counters cost one call each."""

    scene = None

    def span(self, name):
        return nullcontext()

    def add(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.scene = None
        self._stack = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, name, time.perf_counter(), None, parent, self.scene]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def add(self, name, value):
        self.counters[(self.scene, name)] += float(value)

    def span_seconds(self, name, scene):
        """Total duration of the spans called name in one scene."""
        return sum(
            end - start
            for _, n, start, end, _, s in self.spans
            if n == name and s == scene and end is not None
        )

    def counter(self, name, scene):
        return self.counters.get((scene, name), 0.0)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, scene in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "scene": scene,
                }) + "\n")


def merge_eigvalsh_count(n, cfg):
    """Gram eigen-decompositions one greedy_merge_init call computes:
    one per sampled candidate pair, every round from N sets down to K."""
    sets = np.arange(n, cfg.n_clusters, -1, dtype=np.int64)
    return int(np.minimum(cfg.merge_candidates, sets * (sets - 1) // 2).sum())


def replay_gdm(tracer, a, cfg):
    """Run gdm's restarts one by one through the optimizer's public stages.

    Child seeds come from SeedSequence(cfg.seed).spawn(restarts) and the
    winner is the lowest (gd, restart index), exactly as gdm draws and
    chooses them, so the returned (labels, gd) must equal gdm's.
    """
    n = a.shape[1]
    params = cfg.objective_params()
    completed = []
    first_merge = None
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        try:
            with tracer.span("optimizer.restart"):
                rng = np.random.default_rng(child)
                with tracer.span("optimizer.merge_init"):
                    merged = greedy_merge_init(a, cfg, rng)
                membership = indicator_membership(merged, cfg.n_clusters)
                with tracer.span("optimizer.descend"):
                    membership = descend(a, membership, cfg)
                with tracer.span("optimizer.threshold"):
                    descended = threshold(membership)
                with tracer.span("optimizer.refine"):
                    refined = genetic_refine(a, descended, cfg)
                dims = hard_cluster_dims(a, refined, cfg.n_clusters, cfg.eps,
                                         on_degenerate="zero")
        except DegenerateClusterError:
            continue
        if first_merge is None:
            first_merge = merged
        tracer.add("optimizer.descent_label_changes",
                   np.count_nonzero(descended != merged))
        tracer.add("optimizer.refine_moves", np.count_nonzero(refined != descended))
        completed.append((pnorm(dims, cfg.p), refined))
    tracer.add("optimizer.merge_eigvalsh", cfg.restarts * merge_eigvalsh_count(n, cfg))
    if not completed:
        raise DegenerateClusterError("every replayed restart failed")
    # One soft value and gradient at a merge-init membership: the
    # objective kernel's cost, outside the restart spans.
    start = indicator_membership(first_merge, cfg.n_clusters)
    with tracer.span("objective.value_grad"):
        global_dimension_soft(a, start, params, on_degenerate="zero")
        gd_gradient(a, start, params, on_degenerate="zero")
    gd, labels = min(completed, key=lambda t: t[0])
    winners = sum(1 for g, _ in completed if g == gd)
    tracer.add("optimizer.winner_share", winners / cfg.restarts)
    return labels, gd
