"""In-process A/B timing of two source trees on one benchmark workload.

Usage, from the root of a source checkout:

    python3 tools/ab_tune.py BASE CHANGE --workload avg_erm --seed 1 --rounds 12 --calls 20 [--apply]

BASE and CHANGE are checkouts (directories holding ``src/partition_tuner``).
Both are loaded into this one process as separately named packages, and the
workload of ``perfbench/workloads.py`` is set up once on each through its
``lib=`` argument.  A round makes ``--calls`` tuning calls; each call tunes
one input on both trees, one right after the other, and the side that goes
first alternates from round to round.  The script prints each round's CPU
seconds, the median over rounds of the change's time over the base's (with
its quartiles), the rounds the change won, whether every answer and profile
(breakpoints, values, representatives and payloads) was identical, with
floats compared bit for bit whether numpy's or Python's, and each side's
total ``instances_evaluated``.  With ``--apply``, each call's result is
also applied to the call's held-out input (the workload's ``apply``) on both
trees, timed the same way, and checked with the workload's ``check_apply``.
It exits with status 1 when an answer, a profile or an applied output
differs, or when the change made more runs than the base on any call.

    python3 tools/ab_tune.py BASE CHANGE --gaussian N [--rounds R]

times instead the large power_average sweep: ``erm_alpha`` over alpha in
(0.5, 3) with k=3, p=2 and ``phi_p`` on one instance of N 2-d points drawn
by ``numpy.random.default_rng(N).standard_normal``.  Each of R rounds
(default 1) runs it once on each tree, alternating which goes first, and
the script prints each side's CPU seconds and their ratio.  It exits with
status 1 when the profiles (bit for bit) or ``instances_evaluated`` differ.

Both sides of a call run at the same host speed, so the ratio does not
follow a shared host's drift; perfbench's 30 s runs cannot resolve gains of
a few percent.  The script only reads ``perfbench``: the workloads, their
inputs and their answers are the benchmark's own.
"""

from __future__ import annotations

import argparse
import importlib.util
import numbers
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


def bits(x, skip=object()):
    """x compared by value: each float, numpy's or Python's, as its
    float.hex, each tuple or array as a list without the object skip, each
    integer as itself and anything else as its repr."""
    if isinstance(x, numbers.Real) and not isinstance(x, numbers.Integral):
        return float(x).hex()
    if hasattr(x, "tolist"):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        return [bits(v, skip) for v in x if v is not skip]
    return x if isinstance(x, numbers.Integral) else repr(x)


def outcome(workload, res):
    """What must agree between the two trees: the answer and, for a search
    that returns one, its profile."""
    prof = getattr(res, "profile", None)
    if prof is not None:
        prof = (prof.breakpoints, prof.values, prof.representatives, prof.payloads)
    return bits((workload.answer(res), prof))


def applied(out, inp):
    """What must agree between two applications: the output, without the
    held-out input it carries."""
    return bits(out, inp)


def gaussian(libs, n, rounds):
    """A/B-time the power_average sweep on n Gaussian points; 0 if both
    trees gave the same profile and run count in every round."""
    import numpy as np

    pts = np.random.default_rng(n).standard_normal((n, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(dist, 0.0)
    same, ratios = True, []
    print(f"gaussian power_average sweep, n={n}: {rounds} rounds")
    print("round  base_s  change_s  ratio  runs  cells")
    for r in range(rounds):
        spent, got = {}, {}
        for side in (("base", "change") if r % 2 == 0 else ("change", "base")):
            lib = libs[side]
            inst = lib.ClusteringInstance(n=n, dist=dist)
            t0 = time.process_time()
            res = lib.erm_alpha([inst], "power_average", (0.5, 3.0), 3, lib.PruningRule(p=2.0),
                                lib.Objective(kind="phi_p", p=2.0))
            spent[side] = time.process_time() - t0
            prof = res.profile
            got[side] = bits((prof.breakpoints, prof.values, prof.representatives,
                              prof.payloads, res.instances_evaluated))
        same = same and got["base"] == got["change"]
        ratios.append(spent["change"] / spent["base"])
        print(f"{r:5d}  {spent['base']:6.2f}  {spent['change']:8.2f}  {ratios[-1]:.3f}"
              f"  {res.instances_evaluated:4d}  {len(prof):5d}")
    print(f"median ratio change/base {statistics.median(ratios):.3f}")
    print(f"profiles and instances_evaluated identical in all {rounds} rounds: "
          f"{'yes' if same else 'NO'}")
    return 0 if same else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", default="avg_erm")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=None, help="default 12, or 1 with --gaussian")
    ap.add_argument("--calls", type=int, default=20)
    ap.add_argument("--apply", action="store_true",
                    help="also time and compare each call's held-out application")
    ap.add_argument("--gaussian", type=int, metavar="N",
                    help="time the power_average sweep on N Gaussian points instead")
    args = ap.parse_args(argv)

    # the workloads import partition_tuner for their input types
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    libs = {"base": load_tree("ab_base", args.base), "change": load_tree("ab_change", args.change)}
    if args.gaussian is not None:
        return gaussian(libs, args.gaussian, args.rounds or 1)
    args.rounds = args.rounds or 12
    cls = workloads.WORKLOADS[args.workload]
    sides = {}
    for side, lib in libs.items():
        sides[side] = cls(args.seed, lib=lib)
        sides[side].setup()

    ratios, apply_ratios, won, same, same_apply, calls = [], [], 0, True, True, 0
    runs, more = {"base": 0, "change": 0}, 0
    print(f"{args.workload} seed {args.seed}: {args.rounds} rounds x {args.calls} calls")
    print("round  base_s  change_s  ratio" + ("  apply_base_s  apply_change_s  ratio"
                                              if args.apply else ""))
    for r in range(args.rounds):
        spent = {"base": 0.0, "change": 0.0}
        apply_spent = {"base": 0.0, "change": 0.0}
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for i in range(r * args.calls, (r + 1) * args.calls):
            x = sides["base"].inputs(i)
            got, made, outs = {}, {}, {}
            for side in order:
                wl = sides[side]
                t0 = time.process_time()
                res = wl.tune(x)
                spent[side] += time.process_time() - t0
                got[side] = outcome(wl, res)
                made[side] = getattr(res, "instances_evaluated", 0)
                runs[side] += made[side]
                if args.apply:
                    inp = wl.apply_input(i)
                    t0 = time.process_time()
                    out = wl.apply(res, inp)
                    apply_spent[side] += time.process_time() - t0
                    wl.check_apply(out)
                    outs[side] = applied(out, inp)
            same = same and got["base"] == got["change"]
            same_apply = same_apply and outs.get("base") == outs.get("change")
            more += made["change"] > made["base"]
            calls += 1
        ratio = spent["change"] / spent["base"]
        ratios.append(ratio)
        won += spent["change"] < spent["base"]
        line = f"{r:5d}  {spent['base']:6.3f}  {spent['change']:8.3f}  {ratio:.3f}"
        if args.apply:
            apply_ratios.append(apply_spent["change"] / apply_spent["base"])
            line += (f"  {apply_spent['base']:12.3f}  {apply_spent['change']:14.3f}"
                     f"  {apply_ratios[-1]:.3f}")
        print(line)
    for label, values in (("", ratios), ("apply ", apply_ratios)):
        if values:
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(f"{label}median ratio change/base {med:.3f} [quartiles {q1:.3f}, {q3:.3f}]"
                  + ("" if label else f"; change faster in {won} of {args.rounds} rounds"))
    print(f"answers and profiles identical on all {calls} calls: {'yes' if same else 'NO'}")
    if args.apply:
        print(f"applied outputs identical on all {calls} calls: {'yes' if same_apply else 'NO'}")
    print(f"instances_evaluated: base {runs['base']}, change {runs['change']}; "
          f"change made more runs on {more} calls")
    return 0 if same and same_apply and not more else 1


if __name__ == "__main__":
    sys.exit(main())
