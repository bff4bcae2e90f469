"""Command-line front end.

Every subcommand materializes its full parameter set into a run config that
can be saved (--save-config) and replayed (--config) for bit-identical
output.  Results go to stdout as short human-readable summaries; --out
writes the complete result as JSON and --csv dumps (parameter, cost) rows
for profile-producing commands.

Exit codes: 0 success, 1 usage, 2 bad data, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import DataError, DomainError, NumericError, ParseError, check_seed
from .instances import (
    ClusteringInstance,
    MaxQPInstance,
    _read_doc,
    _write_doc,
    fixture_path,
    gen_general_lb,
    gen_k4_shatter,
    gen_oscillation,
    gen_two_gadget,
    load_embedding,
    load_instance,
    save_embedding,
    save_instance,
    validate,
)
from .linkage import MergeRule, build_tree
from .param_search import erm_alpha, erm_joint, pdim_table, sample_size
from .pruning_dp import Objective, PruningRule, best_k_pruning, objective_value
from .sdp_round import (
    disc_best,
    discretized_count,
    embed_bm,
    owr_erm,
    rprt_erm,
    sample_q,
    sample_z,
    slin_erm,
)

FAMILY_ALIASES = {
    "convex": "convex_minmax",
    "convex-minmax": "convex_minmax",
    "convex_minmax": "convex_minmax",
    "power": "power_minmax",
    "power-minmax": "power_minmax",
    "power_minmax": "power_minmax",
    "average-power": "power_average",
    "power-average": "power_average",
    "power_average": "power_average",
    "sigma-linear": "sigma_linear",
    "sigma_linear": "sigma_linear",
    "sigma-power": "sigma_power",
    "sigma_power": "sigma_power",
}

OBJ_ALIASES = {"phi": "phi_p", "psi": "psi_pow", "gt": "gt_distance"}


def _family(name: str) -> str:
    try:
        return FAMILY_ALIASES[name]
    except KeyError:
        raise DomainError(f"unknown family {name!r}") from None


def _floats(text: str):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from None


def _range(text: str):
    vals = _floats(text)
    if len(vals) != 2:
        raise DomainError(f"expected lo,hi range, got {text!r}")
    return vals


def _seed(text: str) -> int:
    try:
        return check_seed(int(text))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _pvalue(text: str) -> float:
    if text in ("inf", "Inf", "INF"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"bad exponent {text!r}") from None


def _load(path, kind, command):
    """Load one instance file and check that it holds the kind the command reads."""
    inst = load_instance(path)
    if not isinstance(inst, kind):
        raise ParseError(f"{path}: {command} expects a {kind.__name__}")
    return inst


def _instances(args, kind=ClusteringInstance):
    return [_load(p, kind, args.command) for p in args.instances.split(",")]


def _one_instance(args, kind):
    insts = _instances(args, kind)
    if len(insts) != 1:
        raise ParseError(f"{args.command} takes one instance file, got {len(insts)}")
    return insts[0]


def _objective(args) -> Objective:
    kind = OBJ_ALIASES.get(args.obj, args.obj)
    return Objective(kind=kind, p=None if kind == "gt_distance" else args.obj_p)


def _thread_budget():
    raw = os.environ.get("PARTITION_TUNER_THREADS")
    if raw is None:
        return None
    try:
        val = int(raw)
    except ValueError:
        raise DomainError(f"PARTITION_TUNER_THREADS must be an integer, got {raw!r}")
    if val < 0:
        raise DomainError("PARTITION_TUNER_THREADS must be >= 0")
    return val


def _profile_doc(profile):
    return {
        "parameter": profile.parameter,
        "breakpoints": list(profile.breakpoints),
        "values": list(profile.values),
        "representatives": list(profile.representatives),
        "intervals": len(profile),
    }


def _write_outputs(args, result):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if getattr(args, "csv", None):
        prof = result.get("profile")
        if prof is None:
            raise DomainError("--csv requires a profile-producing command")
        with open(args.csv, "w") as fh:
            fh.write("parameter,cost\n")
            for rep, val in zip(prof["representatives"], prof["values"]):
                fh.write(f"{float(rep)!r},{float(val)!r}\n")


# ---------------------------------------------------------------------------
# subcommand bodies


def cmd_gen(args):
    kind = args.kind
    if not args.out:
        raise DomainError("gen requires --out")
    fix_path = fixture_path(args.out)
    if kind == "k4":
        inst, emb, z, witness = gen_k4_shatter(args.n, args.j)
        save_instance(args.out, inst)
        base = args.out[:-5] if args.out.endswith(".json") else args.out
        emb_path = base + ".embedding.json"
        save_embedding(emb_path, emb)
        _write_doc(fix_path, "fixture",
                   {"kind": "k4", "j": args.j, "z": z, "expected_witness": witness})
        extras = [emb_path, fix_path]
    else:
        if kind == "two-gadget":
            inst, fix = gen_two_gadget(args.alpha_star, _family(args.family), p=args.p)
        elif kind == "oscillation":
            if not args.alphas:
                raise DomainError("gen oscillation requires --alphas")
            alphas = _floats(args.alphas)
            n = 6 * (len(alphas) + 1) + 2
            inst, fix = gen_oscillation(n, alphas, _family(args.family), p=args.p)
        else:  # general-lb; the parser admits no other kind
            offsets = _floats(args.offsets) if args.offsets else None
            inst, fix = gen_general_lb(args.rounds, offsets)
        save_instance(args.out, inst, fix)
        extras = [fix_path]
    print(f"wrote {args.out} (n={inst.n}, kind={kind})")
    for p in extras:
        print(f"wrote {p}")
    return None  # --out already holds the instance itself


def cmd_validate(args):
    reports = {}
    bad = []
    for path in args.instances.split(","):
        inst = _load(path, ClusteringInstance, args.command)
        rep = validate(inst, tol=args.tol)
        reports[path] = {
            "n": inst.n,
            "is_symmetric": rep.is_symmetric,
            "is_metric": rep.is_metric,
            "worst_triangle_violation": rep.worst_triangle_violation,
            "distinct_distance_count": rep.distinct_distance_count,
        }
        status = "ok" if rep.is_symmetric and rep.is_metric else "INVALID"
        print(
            f"{path}: {status} n={inst.n} distinct={rep.distinct_distance_count} "
            f"worst_violation={rep.worst_triangle_violation:.3g}"
        )
        if status != "ok":
            bad.append(path)
    if bad:
        raise DataError(f"not a metric: {', '.join(bad)}")
    return {"reports": reports}


def _merge_rule(args):
    weights = _floats(args.weights) if getattr(args, "weights", None) else None
    return MergeRule(
        family=_family(args.family),
        alpha=getattr(args, "alpha", None),
        weights=weights,
        sigma=getattr(args, "sigma", None),
    )


def cmd_tree(args):
    inst = _one_instance(args, ClusteringInstance)
    rule = _merge_rule(args)
    tree = build_tree(inst, rule)
    merges = [
        [[int(x) for x in tree.leaf_sets[a]], [int(x) for x in tree.leaf_sets[b]], float(val)]
        for (a, b), val in zip(tree.merges, tree.values)
    ]
    print(f"built tree on n={inst.n}: {len(tree.merges)} merges")
    for left, right, val in merges[: args.head]:
        print(f"  {left} + {right} at {val:.6g}")
    if len(merges) > args.head:
        print(f"  ... {len(merges) - args.head} more")
    return {"n": inst.n, "merges": merges}


def cmd_prune(args):
    inst = _one_instance(args, ClusteringInstance)
    rule = _merge_rule(args)
    tree = build_tree(inst, rule)
    prule = PruningRule(p=_pvalue(args.p))
    res = best_k_pruning(inst, tree, args.k, prule, variant=args.variant)
    obj = _objective(args)
    cost = objective_value(inst, obj, res.clusters, res.centers)
    print(f"k={args.k} variant={args.variant} score={res.score!r} objective={cost!r}")
    for cl, c in zip(res.clusters, res.centers):
        print(f"  center {c}: {sorted(cl.tolist())}")
    return {
        "clusters": [[int(x) for x in sorted(c)] for c in res.clusters],
        "centers": [int(c) for c in res.centers],
        "score": float(res.score),
        "objective": float(cost),
    }


def cmd_search(args):
    """sweep-alpha, erm-alpha and erm-joint: one exact search, whose profile
    sweep-alpha prints and whose best run the two ERM commands print."""
    insts = _instances(args)
    family, alpha_range = _family(args.family), _range(args.range)
    joint = args.command == "erm-joint"
    if joint:  # it accepts --p and --sigma, which saved configs carry, and ignores them
        res = erm_joint(insts, family, alpha_range, _range(args.p_range), args.k,
                        _objective(args), variant=args.variant, tol=args.tol)
    else:
        res = erm_alpha(insts, family, alpha_range, args.k, PruningRule(p=_pvalue(args.p)),
                        _objective(args), variant=args.variant, sigma=args.sigma, tol=args.tol)
    profile = _profile_doc(res.profile)
    if args.command == "sweep-alpha":
        print(f"{len(res.profile)} intervals over {args.range}")
        for i, cost in enumerate(res.profile.values):
            lo, hi = res.profile.interval(i)
            print(f"  [{lo:.9g}, {hi:.9g}] cost={cost!r}")
        return {"profile": profile}
    if joint:
        (alo, ahi), (plo, phi) = res.best_interval
        print(f"best (alpha, p) = {res.best_param!r} on [{alo!r}, {ahi!r}] x "
              f"[{plo!r}, {phi!r}] cost={res.best_cost!r}")
    else:
        lo, hi = res.best_interval
        print(f"best alpha {res.best_param!r} on [{lo!r}, {hi!r}] "
              f"cost={res.best_cost!r} ({res.instances_evaluated} evaluations)")
    return {  # json writes the tuples of best_param and best_interval as lists
        "best_param": res.best_param,
        "best_interval": res.best_interval,
        "best_cost": res.best_cost,
        "instances_evaluated": res.instances_evaluated,
        "profile": profile,
    }


def cmd_embed(args):
    inst = _one_instance(args, MaxQPInstance)
    res = embed_bm(
        inst,
        rank=args.rank,
        seed=args.seed,
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
    )
    if args.out:
        save_embedding(args.out, res.embedding)
        print(f"wrote {args.out}")
    print(
        f"objective={res.objective!r} converged={res.converged} "
        f"iterations={res.iterations}"
    )
    return None  # embedding already written; no JSON result document


def _rounding_setup(args):
    inst = _one_instance(args, MaxQPInstance)
    if args.embedding:
        emb = load_embedding(args.embedding)
    else:
        emb = embed_bm(inst, seed=args.seed).embedding
    return inst, emb


# command -> (ERM, projection dimension of an embedding, whether each sample
# also draws thresholds, printed parameter name)
_ROUNDING_ERM = {
    "erm-slin": (slin_erm, lambda emb: emb.d, False, "s"),
    "erm-owr": (owr_erm, lambda emb: emb.d + emb.n, False, "gamma"),
    "erm-rprt": (rprt_erm, lambda emb: emb.d, True, "s"),
}


def cmd_erm_rounding(args):
    erm, dim, thresholds, name = _ROUNDING_ERM[args.command]
    inst, emb = _rounding_setup(args)
    Z = sample_z(dim(emb), args.samples, args.seed)
    if thresholds:
        Q = sample_q(inst.n, args.samples, args.seed)
        samples = [(inst, emb, z, q) for z, q in zip(Z, Q)]
    else:
        samples = [(inst, emb, z) for z in Z]
    res = erm(samples)
    print(f"best {name}={res.best_param!r} value={res.best_value!r}")
    return {
        "best_param": res.best_param,
        "best_value": res.best_value,
        "thresholds": res.thresholds,
        "interval_values": res.interval_values,
    }


def cmd_erm_disc(args):
    inst, emb = _rounding_setup(args)
    Z = sample_z(emb.d, args.samples, args.seed)
    samples = [(inst, emb, Z[i]) for i in range(args.samples)]
    spec, value = disc_best(samples, args.eps, cap=args.cap)
    count = discretized_count(args.eps)
    print(f"searched {count} rounding functions; best value={value!r}")
    return {
        "count": count,
        "best_value": value,
        "eps": spec.eps,
        "B": spec.B,
        "values": list(spec.values),
    }


def cmd_sample_size(args):
    m = sample_size(args.H, args.eps, args.delta, args.pdim, c=args.c)
    print(f"m = {m}")
    return {"m": m}


def cmd_pdim(args):
    cls, value = pdim_table(
        _family(args.family), args.n, sigma=args.sigma, beta=args.beta
    )
    print(f"{cls}: {value!r}")
    return {"growth_class": cls, "value": value}


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="partition-tuner",
        description="data-driven tuning of clustering and rounding algorithms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False, profile=False):
        p.add_argument("--out", help="write the JSON result here")
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--save-config", dest="save_config")
        p.add_argument("--config", help="replay a saved run config")
        if seeded:
            p.add_argument("--seed", type=_seed, default=0)
        if profile:
            p.add_argument("--csv", help="write (parameter, cost) rows here")

    def pipeline_flags(p):
        p.add_argument("--instances", required=True, help="comma-separated paths")
        p.add_argument("--family", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--p", default="2", help="pruning exponent (or 'inf')")
        p.add_argument("--obj", default="phi", choices=sorted(OBJ_ALIASES))
        p.add_argument("--obj-p", dest="obj_p", type=float, default=2.0)
        p.add_argument("--variant", default="fixed", choices=["fixed", "voronoi"])
        p.add_argument("--sigma", type=int, default=None)

    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("kind", choices=["two-gadget", "oscillation", "general-lb", "k4"])
    p.add_argument("--alpha-star", dest="alpha_star", type=float, default=0.5)
    p.add_argument("--family", default="convex")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--alphas", help="comma-separated breakpoints (oscillation)")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--offsets", help="comma-separated offsets (general-lb)")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--j", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="check metric axioms of saved instances")
    p.add_argument("--instances", required=True)
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("tree", help="build one merge tree")
    p.add_argument("--instances", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--weights")
    p.add_argument("--sigma", type=int, default=None)
    p.add_argument("--head", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("prune", help="build a tree and extract its best k-pruning")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--weights")
    pipeline_flags(p)
    common(p)
    p.set_defaults(func=cmd_prune)

    for name, text in (("sweep-alpha", "exact cost profile over alpha"),
                       ("erm-alpha", "pick the cost-minimizing alpha interval"),
                       ("erm-joint", "minimize over alpha and the exponent p")):
        p = sub.add_parser(name, help=text)
        pipeline_flags(p)
        p.add_argument("--range", required=True, help="lo,hi")
        if name == "erm-joint":
            p.add_argument("--p-range", dest="p_range", required=True, help="lo,hi")
        common(p, profile=True)
        p.set_defaults(func=cmd_search)

    p = sub.add_parser("embed", help="low-rank embedding of a quadratic program")
    p.add_argument("--instances", required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=10 ** 4)
    p.add_argument("--grad-tol", dest="grad_tol", type=float, default=1e-6)
    common(p, seeded=True)
    p.set_defaults(func=cmd_embed)

    for name in [*_ROUNDING_ERM, "erm-disc"]:
        p = sub.add_parser(name, help=f"rounding parameter search ({name[4:]})")
        p.add_argument("--instances", required=True)
        p.add_argument("--embedding", help="embedding JSON (default: compute)")
        p.add_argument("--samples", type=int, default=5)
        if name == "erm-disc":
            p.add_argument("--eps", type=float, required=True)
            p.add_argument("--cap", type=int, default=10 ** 6)
        common(p, seeded=True)
        p.set_defaults(func=cmd_erm_disc if name == "erm-disc" else cmd_erm_rounding)

    p = sub.add_parser("sample-size", help="sample-complexity calculator")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--pdim", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)
    common(p)
    p.set_defaults(func=cmd_sample_size)

    p = sub.add_parser("pdim", help="pseudo-dimension lookup")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=int, default=None)
    p.add_argument("--beta", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_pdim)

    return parser


_CONFIG_SKIP = {"func", "command", "config", "save_config"}


def _apply_config(args, parser):
    """Overlay a saved run config on the parsed flags.  The merged values go
    through the parser again, so a config value gets its flag's type and
    checks."""
    if not getattr(args, "config", None):
        return args
    doc = _read_doc(args.config, "config")
    if doc.get("command") != args.command:
        raise DataError(
            f"config is for {doc.get('command')!r}, not {args.command!r}"
        )
    merged = vars(args).copy()
    for key, val in doc.items():
        if key in _CONFIG_SKIP:
            continue
        if key not in merged:
            raise DataError(f"config has unknown field {key!r}")
        merged[key] = val
    argv = [args.command] + ([str(merged.pop("kind"))] if "kind" in merged else [])
    argv += [f"--{key.replace('_', '-')}={val}" for key, val in merged.items()
             if key not in _CONFIG_SKIP and val is not None]
    try:
        replayed = parser.parse_args(argv)
    except SystemExit:
        raise ParseError(f"{args.config}: a value does not fit its flag") from None
    replayed.config, replayed.save_config = args.config, args.save_config
    return replayed


def _save_config(args):
    if not getattr(args, "save_config", None):
        return
    doc = {"command": args.command}
    for key, val in sorted(vars(args).items()):
        if key in _CONFIG_SKIP:
            continue
        doc[key] = val
    with open(args.save_config, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _thread_budget()  # evaluation is sequential; the variable is validated only
        args = _apply_config(args, parser)
        _save_config(args)
        result = args.func(args)
        if result is not None:
            _write_outputs(args, result)
        return 0
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
