"""In-process A/B timing of two source trees on one benchmark workload.

Usage, from the root of a source checkout:

    python3 tools/ab_tune.py BASE CHANGE --workload avg_erm --seed 1 --rounds 12 --calls 20

BASE and CHANGE are checkouts (directories holding ``src/partition_tuner``).
Both are loaded into this one process as separately named packages, and the
workload of ``perfbench/workloads.py`` is set up once on each through its
``lib=`` argument.  A round makes ``--calls`` tuning calls; each call tunes
one input on both trees, one right after the other, and the side that goes
first alternates from round to round.  The script prints each round's CPU
seconds, the median over rounds of the change's time over the base's (with
its quartiles), the rounds the change won, whether every answer and profile
(breakpoints, values, representatives and payloads) was identical, and each
side's total ``instances_evaluated``.  It exits with status 1 when an answer
or a profile differs, or when the change made more runs than the base on
any call.

Both sides of a call run at the same host speed, so the ratio does not
follow a shared host's drift; perfbench's 30 s runs cannot resolve gains of
a few percent.  The script only reads ``perfbench``: the workloads, their
inputs and their answers are the benchmark's own.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True


def load_tree(name, checkout):
    """The package src/partition_tuner of checkout, imported as name."""
    init = Path(checkout).resolve() / "src" / "partition_tuner" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no library source at {init.parent}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def outcome(workload, res):
    """What must agree between the two trees: the answer and, for a search
    that returns one, its profile."""
    prof = getattr(res, "profile", None)
    if prof is not None:
        prof = (prof.breakpoints, prof.values, prof.representatives, prof.payloads)
    return repr((workload.answer(res), prof))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", default="avg_erm")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--calls", type=int, default=20)
    args = ap.parse_args(argv)

    # the workloads import partition_tuner for their input types
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    libs = {"base": load_tree("ab_base", args.base), "change": load_tree("ab_change", args.change)}
    cls = workloads.WORKLOADS[args.workload]
    sides = {}
    for side, lib in libs.items():
        sides[side] = cls(args.seed, lib=lib)
        sides[side].setup()

    ratios, won, same, calls = [], 0, True, 0
    runs, more = {"base": 0, "change": 0}, 0
    print(f"{args.workload} seed {args.seed}: {args.rounds} rounds x {args.calls} calls")
    print("round  base_s  change_s  ratio")
    for r in range(args.rounds):
        spent = {"base": 0.0, "change": 0.0}
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for i in range(r * args.calls, (r + 1) * args.calls):
            x = sides["base"].inputs(i)
            got, made = {}, {}
            for side in order:
                t0 = time.process_time()
                res = sides[side].tune(x)
                spent[side] += time.process_time() - t0
                got[side] = outcome(sides[side], res)
                made[side] = getattr(res, "instances_evaluated", 0)
                runs[side] += made[side]
            same = same and got["base"] == got["change"]
            more += made["change"] > made["base"]
            calls += 1
        ratio = spent["change"] / spent["base"]
        ratios.append(ratio)
        won += spent["change"] < spent["base"]
        print(f"{r:5d}  {spent['base']:6.3f}  {spent['change']:8.3f}  {ratio:.3f}")
    med = statistics.median(ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"median ratio change/base {med:.3f} [quartiles {q1:.3f}, {q3:.3f}]; "
          f"change faster in {won} of {args.rounds} rounds")
    print(f"answers and profiles identical on all {calls} calls: {'yes' if same else 'NO'}")
    print(f"instances_evaluated: base {runs['base']}, change {runs['change']}; "
          f"change made more runs on {more} calls")
    return 0 if same and not more else 1


if __name__ == "__main__":
    sys.exit(main())
