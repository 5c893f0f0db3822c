"""The benchmark's workloads: how each builds its inputs and runs them.

Every workload calls the public entry points through the module attributes
(``harness.run``, ``harness.scenario``, ...) at call time, so that a tracer
installed around a run sees the calls.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from probe import plain_clocks

DEFAULT_CORPUS_SEED = 20260810
CORPUS_SIZE = 100


@dataclass
class Workload:
    name: str
    # (run seed, corpus seed) -> instances as (instance id, InstanceFile)
    build: object
    uses_corpus_seed: bool = False
    # Passes a run makes at least: two give the corpus's wall_s and each
    # instance's time a second sample.
    min_passes: int = 1

    def reference_key(self, corpus_seed: int) -> str:
        """Key of this input's reference digest in ``reference.json``."""
        return f"{self.name}:{corpus_seed}" if self.uses_corpus_seed else self.name


def _corpus(seed: int, corpus_seed: int):
    from finsys import harness
    instances = harness.random_instances(corpus_seed, CORPUS_SIZE)
    order = list(range(len(instances)))
    random.Random(seed).shuffle(order)
    return [(i, instances[i]) for i in order]


def _scenario(name: str, **params):
    def build(seed: int, corpus_seed: int):
        from finsys import harness
        return [(0, harness.scenario(name, **params))]
    return build


WORKLOADS = {
    # The acceptance corpus (what `finsys fuzz` and acceptance criterion 5
    # run): many small instances plus one 625-element skew ring.  The run
    # seed only shuffles the order the instances run in; the corpus seed
    # picks the corpus, so a held-out corpus needs --corpus-seed.
    "corpus": Workload("corpus", _corpus, uses_corpus_seed=True, min_passes=2),
    # F8 under its Galois group: exhaustive translation scans dominate and
    # every closure reaches the whole ring.
    "galois8": Workload("galois8", _scenario("galois-field", p=2, n=3)),
    # Disconnected groupoid: validate_partial_action dominates and closures
    # are rare (22 calls), so closure-kernel changes predict no change.
    "disconnected3": Workload("disconnected3",
                              _scenario("disconnected", n=3, K="F2")),
}


@dataclass
class Iteration:
    """One pass over a workload's inputs, built afresh for the pass."""
    wall_s: float = 0.0                            # raw seconds
    scaled_s: float = 0.0                          # reference seconds
    times: dict = field(default_factory=dict)      # instance id -> raw seconds
    reports: dict = field(default_factory=dict)    # instance id -> report text
    statuses: dict = field(default_factory=dict)   # status -> row count
    errors: list = field(default_factory=list)     # (instance id, message)

    @property
    def rows(self) -> int:
        return sum(self.statuses.values())

    def digest(self) -> str:
        """sha256 of the reports in instance-id order, independent of the
        order the run seed chose."""
        text = "\n".join(self.reports[i] for i in sorted(self.reports))
        return hashlib.sha256(text.encode()).hexdigest()


def run_iteration(workload: Workload, seed: int, corpus_seed: int,
                  tracer=None, clocks=plain_clocks) -> Iteration:
    """Build fresh inputs, then run every instance once, in a closed loop.

    Fresh inputs keep per-object memos of one pass from speeding up the next.
    An exception from a battery loses that instance's rows and is recorded.
    ``clocks`` gives (raw, reference) seconds; see ``probe.py``.
    """
    from finsys import harness

    instances = workload.build(seed, corpus_seed)
    it = Iteration()
    for idx, inst in instances:
        if tracer is not None:
            tracer.instance = idx
        raw, scaled = clocks()
        try:
            report, error = harness.run(inst), None
        except Exception as exc:       # a lost instance is a failed check
            report, error = None, exc
        raw_end, scaled_end = clocks()
        it.times[idx] = raw_end - raw
        it.scaled_s += scaled_end - scaled
        if error is not None:
            it.errors.append((idx, f"{type(error).__name__}: {error}"))
            it.reports[idx] = f"INSTANCE {idx}\nERROR {type(error).__name__}"
            continue
        it.reports[idx] = f"INSTANCE {idx}\n{report.text()}"
        for status, n in report.statuses().items():
            it.statuses[status] = it.statuses.get(status, 0) + n
    if tracer is not None:
        tracer.instance = -1
    it.wall_s = sum(it.times.values())
    return it
