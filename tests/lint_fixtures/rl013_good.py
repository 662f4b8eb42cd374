"""RL013 good fixture: counters owned by per-world state."""

import itertools


class Orchestrator:
    def __init__(self):
        self._flow_ids = itertools.count(1)  # one counter per world

    def next_flow_id(self):
        return next(self._flow_ids)


def numbered(items):
    ids = itertools.count()  # local: lives for one call
    return [(next(ids), item) for item in items]


def make_counter(factory=itertools.count):  # the factory, not a counter
    return factory(1)


_fallback_ids = itertools.count(1)  # reprolint: disable=RL013 -- names ad-hoc test objects only; never journaled
