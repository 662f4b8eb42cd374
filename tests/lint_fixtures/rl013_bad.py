"""RL013 bad fixture: counters that outlive one run."""

import itertools
from itertools import count

_flow_ids = itertools.count(1)  # BAD: module constant, numbers every run


class Frame:
    _ids = count()  # BAD: class attribute, evaluated at import


def make_flow(ids=itertools.count(1)):  # BAD: default argument, evaluated once
    return next(ids)
