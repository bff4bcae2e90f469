"""Tree builds against their golden records, bit for bit.

build_golden.json holds, for each build of ``_golden_builds()``, its
merges, its values as float.hex and the SHA-256 of its leaf sets as JSON,
as computed at commit 2fd3285, before the merge step was cut to fewer numpy
calls.  Run as a script (``PYTHONPATH=src python tests/test_build_golden.py``),
this file prints the records of the current source as JSON.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from partition_tuner import (ClusteringInstance, MergeRule, build_tree, gen_general_lb,
                              gen_two_gadget)

from conftest import euclidean_instance

GOLDEN = Path(__file__).parent / "build_golden.json"

RULES = (
    MergeRule("convex_minmax", 0.4),
    MergeRule("convex_minmax", 0.0),
    MergeRule("power_minmax", 1.1),
    MergeRule("power_minmax", -1.7),
    MergeRule("power_minmax", math.inf),
    MergeRule("power_average", 1.3),
    MergeRule("power_average", 1.5),
    MergeRule("power_average", -0.7),
    MergeRule("power_average", 0.0),
    MergeRule("power_average", math.inf),
    MergeRule("power_average", -math.inf),
    MergeRule("sigma_linear", weights=(0.3, 0.9), sigma=2),
    MergeRule("sigma_linear", weights=(0.2, 1.0, 0.7), sigma=3),
    MergeRule("sigma_power", 1.4, sigma=3),
    MergeRule("sigma_power", -1.3, sigma=2),
    MergeRule("sigma_power", math.inf, sigma=2),
)


def _integer_instance(seed, n, top):
    """n points at integer distances drawn from 1..top: most merges tie."""
    D = np.triu(np.random.default_rng(seed).integers(1, top + 1, size=(n, n)).astype(float), 1)
    return ClusteringInstance(n=n, dist=D + D.T)


def _inputs():
    return {
        "gadget": gen_two_gadget(0.4, "convex_minmax")[0],
        "gaussian10": euclidean_instance(np.random.default_rng(10), 10),
        "gaussian60": euclidean_instance(np.random.default_rng(60), 60),
        "integer": _integer_instance(23, 14, 3),
        "general_lb4": gen_general_lb(4)[0],
    }


def _record(tree):
    return {
        "merges": [[int(u), int(v)] for u, v in tree.merges],
        "values": [float(v).hex() for v in tree.values],
        "leaf_sets": hashlib.sha256(json.dumps(
            [[int(x) for x in s] for s in tree.leaf_sets]).encode()).hexdigest(),
    }


def _golden_builds():
    """{input name: [record of build_tree(input, rule) for rule in RULES]}"""
    return {name: [_record(build_tree(inst, rule)) for rule in RULES]
            for name, inst in _inputs().items()}


def _slot_swaps(merges, n):
    """Steps whose merged pair lists its smaller-minleaf side in the higher
    slot, replaying the merge loop's slots: a merge puts the new node in the
    lower of its two slots and moves the last slot into the higher one."""
    node, swaps = list(range(n)), 0
    for step, (u, v) in enumerate(merges):
        su, sv = node.index(u), node.index(v)
        a, b = min(su, sv), max(su, sv)
        node[b] = node[-1]
        node.pop()
        node[a] = n + step
        swaps += su > sv
    return swaps


def test_builds_equal_their_golden_records():
    want = json.loads(GOLDEN.read_text())
    got = _golden_builds()
    assert list(got) == list(want)
    for name in want:
        assert len(got[name]) == len(want[name]) == len(RULES)
        for rule, g, w in zip(RULES, got[name], want[name]):
            assert g == w, (name, rule)


def test_golden_builds_cover_a_winner_in_the_higher_slot():
    # in some step of every Gaussian n=60 and gadget build, the two tied
    # rows' slot order and minleaf order disagree
    want = json.loads(GOLDEN.read_text())
    for name, n in (("gaussian60", 60), ("gadget", 210)):
        assert all(_slot_swaps(rec["merges"], n) for rec in want[name]), name


if __name__ == "__main__":
    json.dump(_golden_builds(), sys.stdout, separators=(",", ":"))
