"""Command-line interface: exit codes, files, and config replay."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import partition_tuner
from partition_tuner import (
    Embedding,
    SweepDiverged,
    load_embedding,
    load_fixture,
    load_instance,
    param_search,
    save_embedding,
    save_instance,
)
from partition_tuner.cli import main
from partition_tuner.instances import MaxQPInstance
from conftest import (euclidean_instance, near_symmetric_instance, power_sum_overflow_instance,
                      wide_ratio_instance)


@pytest.fixture()
def points_path(tmp_path):
    inst = euclidean_instance(np.random.default_rng(3), 9)
    path = tmp_path / "points.json"
    save_instance(str(path), inst)
    return str(path)


# ---------------------------------------------------------------------------
# generation and validation


def test_gen_oscillation_writes_instance_and_fixture(tmp_path, capsys):
    out = tmp_path / "f.json"
    rc = main([
        "gen", "oscillation", "--alphas", "0.1,0.2,0.3,0.4",
        "--family", "convex", "--p", "2", "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()
    side = tmp_path / "f.fixture.json"
    assert side.exists()
    inst = load_instance(str(out))
    assert inst.n == 32
    fix = load_fixture(str(out))
    assert fix.alphas == pytest.approx((0.1, 0.2, 0.3, 0.4))
    assert "wrote" in capsys.readouterr().out


def test_gen_two_gadget_writes_instance_and_fixture(tmp_path):
    out = tmp_path / "tg.json"
    assert main(["gen", "two-gadget", "--alpha-star", "0.3", "--family", "convex",
                 "--out", str(out)]) == 0
    inst = load_instance(str(out))
    assert inst.n == 210 and inst.k_hint == 4
    fix = load_fixture(str(out))
    assert fix.kind == "two_gadget" and fix.family == "convex_minmax"
    assert fix.alpha_star == 0.3 and fix.expected_breakpoints == (0.3,)


def test_gen_requires_out(tmp_path):
    assert main(["gen", "oscillation", "--alphas", "0.2", "--family", "convex"]) == 2


def test_gen_k4_writes_embedding(tmp_path):
    out = tmp_path / "k4.json"
    rc = main(["gen", "k4", "--n", "8", "--j", "1", "--out", str(out)])
    assert rc == 0
    emb = load_embedding(str(tmp_path / "k4.embedding.json"))
    assert emb.n == 8
    assert np.allclose(np.linalg.norm(emb.vectors, axis=1), 1.0)
    doc = json.loads((tmp_path / "k4.fixture.json").read_text())
    assert "expected_witness" in doc and len(doc["z"]) == 8


def test_gen_general_lb_and_validate(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["gen", "general-lb", "--rounds", "2", "--out", str(out)]) == 0
    assert main(["validate", "--instances", str(out)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_triangle_violation(tmp_path):
    bad = {
        "schema": "partition-tuner/1",
        "type": "clustering",
        "n": 3,
        "dist": [[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", "--instances", str(path)]) == 2


def test_missing_file_exits_two(tmp_path):
    assert main(["validate", "--instances", str(tmp_path / "nope.json")]) == 2


def test_corrupt_schema_exits_two(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"schema": "other/9", "rows": []}))
    assert main(["validate", "--instances", str(path)]) == 2


def test_non_finite_distance_exits_two(tmp_path):
    D = (np.ones((4, 4)) - np.eye(4)).tolist()
    D[1][3] = D[3][1] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"schema": "partition-tuner/1", "type": "clustering",
                                "n": 4, "dist": D}))
    assert main(["tree", "--instances", str(path), "--family", "convex",
                 "--alpha", "0.3"]) == 2


@pytest.mark.parametrize("where,value,says", [((0, 2), 2.0, "symmetric"),
                                              ((1, 1), 0.5, "zero diagonal"),
                                              ((1, 3), 0.0, "positive")])
def test_broken_distance_contract_exits_two(tmp_path, capsys, where, value, says):
    # asymmetric entry, nonzero diagonal, duplicate point
    D = (np.ones((4, 4)) - np.eye(4)).tolist()
    D[where[0]][where[1]] = value
    if where == (1, 3):
        D[3][1] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "partition-tuner/1", "type": "clustering",
                                "n": 4, "dist": D}))
    assert main(["erm-alpha", "--instances", str(path), "--family", "power_average",
                 "--range", "0.5,2", "--k", "2"]) == 2
    assert says in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_distances_whose_ratio_overflows_exit_three(tmp_path, capsys):
    path = tmp_path / "wide.json"
    save_instance(str(path), wide_ratio_instance())
    rc = main(["erm-alpha", "--instances", str(path), "--family", "power", "--k", "2",
               "--range", "0.5,3"])
    assert rc == 3
    assert "numeric error" in capsys.readouterr().err
    # in a fresh process, where a numpy RuntimeWarning would reach stderr,
    # the refusal is the only line there
    env = {**os.environ, "PYTHONPATH": str(Path(partition_tuner.__file__).parents[1])}
    for family in ("power", "power_average", "sigma_power"):
        proc = subprocess.run(
            [sys.executable, "-m", "partition_tuner.cli", "erm-alpha", "--instances", str(path),
             "--family", family, "--sigma", "3", "--k", "2", "--range", "0.5,3"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 3, family
        assert len(proc.stderr.splitlines()) == 1, (family, proc.stderr)
        assert proc.stderr.startswith("numeric error: base ratio 1e+"), family


@pytest.mark.parametrize("flag,value,message", [
    ("--range", "0.5", "expected lo,hi range, got '0.5'"),
    ("--range", "a,b", "expected comma-separated numbers, got 'a,b'"),
    ("--p", "two", "bad exponent 'two'"),
])
def test_malformed_numbers_exit_two_with_their_message(points_path, capsys, flag, value,
                                                       message):
    flags = {"--range": "0,1", "--p": "2", flag: value}
    rc = main(["erm-alpha", "--instances", points_path, "--family", "convex", "--k", "2",
               *(part for item in flags.items() for part in item)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_a_root_tolerance_that_is_not_finite_and_nonnegative_exits_two(points_path, capsys,
                                                                       tol):
    rc = main(["sweep-alpha", "--instances", points_path, "--family", "power_average",
               "--range", "1,3", "--k", "2", "--tol", tol])
    assert rc == 2
    message = f"root tolerance {float(tol)!r} is not a finite number >= 0"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_search_through_infinite_costs_writes_nothing_to_stderr(tmp_path):
    # 1e200 ** 2 is an infinite pruning cost, which the DP means to compare
    path = tmp_path / "wide.json"
    save_instance(str(path), wide_ratio_instance())
    env = {**os.environ, "PYTHONPATH": str(Path(partition_tuner.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "partition_tuner.cli", "erm-alpha", "--instances", str(path),
         "--family", "convex", "--k", "2", "--range", "0,1"],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_joint_search_refuses_a_top_exponent_whose_power_sums_overflow(tmp_path):
    # 1.3e154 ** 2 is finite, but a cluster's sum of two such powers is not
    path = tmp_path / "big.json"
    save_instance(str(path), power_sum_overflow_instance())
    env = {**os.environ, "PYTHONPATH": str(Path(partition_tuner.__file__).parents[1])}
    argv = [sys.executable, "-m", "partition_tuner.cli", "erm-joint", "--instances", str(path),
            "--family", "convex", "--range", "0,1", "--k", "1"]
    proc = subprocess.run(argv + ["--p-range", "1.999,2"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 3 and "Warning" not in proc.stderr
    assert proc.stderr.startswith("numeric error")
    out = tmp_path / "out.json"
    proc = subprocess.run(argv + ["--p-range", "1.5,1.9", "--obj-p", "1", "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(out.read_text())["best_cost"] == 2.45e154


def test_every_subcommand_takes_out_and_the_randomized_ones_take_seed():
    from partition_tuner.cli import _build_parser

    sub = next(a for a in _build_parser()._actions if a.choices and a.dest == "command")
    flags = {name: set(p._option_string_actions) for name, p in sub.choices.items()}
    assert all("--out" in f for f in flags.values())
    assert {name for name, f in flags.items() if "--seed" in f} == {
        "embed", "erm-slin", "erm-owr", "erm-rprt", "erm-disc"}


def test_prune_prints_plain_ints_and_nothing_to_stderr_at_an_infinite_cost(tmp_path):
    # the cluster's sum of squared distances overflows to an intended inf
    path = tmp_path / "big.json"
    save_instance(str(path), power_sum_overflow_instance())
    env = {**os.environ, "PYTHONPATH": str(Path(partition_tuner.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "partition_tuner.cli", "prune", "--instances", str(path),
         "--family", "convex", "--alpha", "0.5", "--k", "1", "--p", "2"],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "k=1 variant=fixed score=inf objective=inf\n  center 0: [0, 1, 2]\n"


def test_diverging_sweep_exits_three(points_path, monkeypatch):
    def diverge(sweep, runs, combine, parameter):
        raise SweepDiverged("sweep refinement failed to converge")

    monkeypatch.setattr(param_search, "_lazy_sweep", diverge)
    rc = main(["sweep-alpha", "--instances", points_path, "--family", "convex",
               "--range", "0,1", "--k", "2"])
    assert rc == 3


# ---------------------------------------------------------------------------
# pipeline commands


def test_tree_and_prune(points_path, tmp_path, capsys):
    assert main([
        "tree", "--instances", points_path, "--family", "convex", "--alpha", "0.3",
    ]) == 0
    assert "merges" in capsys.readouterr().out
    out = tmp_path / "prune.json"
    rc = main([
        "prune", "--instances", points_path, "--family", "average-power",
        "--alpha", "1.0", "--k", "3", "--p", "inf", "--obj", "psi",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["clusters"]) == 3
    assert sorted(x for cl in doc["clusters"] for x in cl) == list(range(9))


def test_prune_rejects_unknown_family(points_path):
    rc = main([
        "prune", "--instances", points_path, "--family", "ward",
        "--alpha", "1.0", "--k", "2",
    ])
    assert rc == 2


def test_sweep_alpha_with_csv_and_out(points_path, tmp_path):
    out = tmp_path / "sweep.json"
    csv = tmp_path / "sweep.csv"
    rc = main([
        "sweep-alpha", "--instances", points_path, "--family", "convex",
        "--range", "0,1", "--k", "2", "--p", "2",
        "--out", str(out), "--csv", str(csv),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    prof = doc["profile"]
    assert prof["breakpoints"][0] == 0.0 and prof["breakpoints"][-1] == 1.0
    assert len(prof["values"]) == prof["intervals"]
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "parameter,cost"
    assert len(lines) == prof["intervals"] + 1
    rep0, val0 = lines[1].split(",")
    assert float(rep0) == prof["representatives"][0]
    assert float(val0) == prof["values"][0]


def test_erm_alpha_on_breakpoint_instance(tmp_path):
    gpath = tmp_path / "g10.json"
    assert main(["gen", "general-lb", "--rounds", "3", "--out", str(gpath)]) == 0
    out = tmp_path / "erm.json"
    rc = main([
        "erm-alpha", "--instances", str(gpath), "--family", "average-power",
        "--range", "1,3", "--k", "2", "--p", "1", "--obj", "phi", "--obj-p", "1",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["profile"]["breakpoints"]) - 2 == 7
    lo, hi = doc["best_interval"]
    assert 1.0 <= lo < hi <= 3.0


def test_erm_joint_cli(points_path, tmp_path):
    out = tmp_path / "joint.json"
    rc = main([
        "erm-joint", "--instances", points_path, "--family", "average-power",
        "--range", "0.5,2", "--p-range", "0.5,3", "--k", "2",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    a, p = doc["best_param"]
    assert 0.5 <= a <= 2.0 and 0.5 <= p <= 3.0
    near = tmp_path / "near.json"
    save_instance(str(near), near_symmetric_instance())
    assert main(["erm-joint", "--instances", str(near), "--family", "convex",
                 "--range", "0,1", "--p-range", "1,3", "--k", "2"]) == 0


@pytest.mark.parametrize("argv", [
    ["erm-alpha", "--family", "convex", "--range", "0,1", "--k", "2"],
    ["erm-alpha", "--family", "average-power", "--range", "0.5,3", "--k", "2"],
    ["erm-joint", "--family", "convex", "--range", "0,1", "--p-range", "1,3", "--k", "2"],
    ["erm-joint", "--family", "average-power", "--range", "0.5,2", "--p-range", "0.5,3",
     "--k", "2"],
])
def test_erm_commands_print_plain_floats(points_path, capsys, argv):
    # breakpoints and best parameters are Python floats, so no numpy repr
    # reaches stdout (a convex sweep's roots come from the polynomial branch)
    assert main([*argv, "--instances", points_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("best") and "np." not in out


# ---------------------------------------------------------------------------
# rounding commands


def test_embed_then_rounding_commands(tmp_path):
    k4 = tmp_path / "k4.json"
    assert main(["gen", "k4", "--n", "8", "--j", "1", "--out", str(k4)]) == 0
    embp = str(tmp_path / "k4.embedding.json")

    for name in ("erm-slin", "erm-owr", "erm-rprt"):
        out = tmp_path / f"{name}.json"
        rc = main([
            name, "--instances", str(k4), "--embedding", embp,
            "--samples", "3", "--seed", "5", "--out", str(out),
        ])
        assert rc == 0, name
        doc = json.loads(out.read_text())
        assert doc["best_value"] >= max(doc["interval_values"]) - 1e-12
        # same seed, same bytes
        blob = out.read_bytes()
        assert main([
            name, "--instances", str(k4), "--embedding", embp,
            "--samples", "3", "--seed", "5", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == blob


def test_embed_command_writes_loadable_embedding(tmp_path):
    k4 = tmp_path / "k4.json"
    assert main(["gen", "k4", "--n", "8", "--j", "1", "--out", str(k4)]) == 0
    out = tmp_path / "emb.json"
    assert main(["embed", "--instances", str(k4), "--out", str(out),
                 "--seed", "2"]) == 0
    emb = load_embedding(str(out))
    assert emb.n == 8
    assert np.allclose(np.linalg.norm(emb.vectors, axis=1), 1.0, atol=1e-9)


def test_erm_disc_cap_exits_three(tmp_path):
    k4 = tmp_path / "k4.json"
    assert main(["gen", "k4", "--n", "8", "--j", "1", "--out", str(k4)]) == 0
    embp = str(tmp_path / "k4.embedding.json")
    rc = main([
        "erm-disc", "--instances", str(k4), "--embedding", embp,
        "--samples", "2", "--eps", "0.7", "--cap", "10",
    ])
    assert rc == 3
    out = tmp_path / "disc.json"
    rc = main([
        "erm-disc", "--instances", str(k4), "--embedding", embp,
        "--samples", "2", "--eps", "0.7", "--out", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text())["count"] == 27


# ---------------------------------------------------------------------------
# calculators, config replay, and plumbing


def test_sample_size_reference_value(capsys):
    rc = main(["sample-size", "--H", "1", "--eps", "0.1",
               "--delta", "0.05", "--pdim", "10"])
    assert rc == 0
    assert "m = 1300" in capsys.readouterr().out
    assert 1300 == math.ceil(100 * (10 + math.log(20)))


def test_pdim_command(capsys):
    assert main(["pdim", "--family", "sigma-linear", "--n", "64",
                 "--sigma", "4"]) == 0
    assert "96.0" in capsys.readouterr().out
    assert main(["pdim", "--family", "ward", "--n", "64"]) == 2


def test_usage_errors_exit_one():
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0


@pytest.mark.parametrize("command,extra", [("sweep-alpha", []), ("erm-alpha", []),
                                           ("erm-joint", ["--p-range", "1,3"])])
def test_config_round_trip(points_path, tmp_path, command, extra):
    out = tmp_path / "run.json"
    cfg = tmp_path / "cfg.json"
    argv = [
        command, "--instances", points_path, "--family", "convex",
        "--range", "0,1", "--k", "2", "--p", "1.5", *extra,
        "--out", str(out), "--save-config", str(cfg),
    ]
    assert main(argv) == 0
    blob = out.read_bytes()
    out.unlink()
    # replay: the config restores every parameter, including the out path
    assert main([
        command, "--instances", points_path, "--family", "convex",
        "--range", "0,1", "--k", "2", *extra, "--config", str(cfg),
    ]) == 0
    assert out.read_bytes() == blob


def test_config_command_mismatch(points_path, tmp_path):
    cfg = tmp_path / "cfg.json"
    assert main([
        "sweep-alpha", "--instances", points_path, "--family", "convex",
        "--range", "0,1", "--k", "2", "--save-config", str(cfg),
    ]) == 0
    rc = main([
        "erm-alpha", "--instances", points_path, "--family", "convex",
        "--range", "0,1", "--k", "2", "--config", str(cfg),
    ])
    assert rc == 2


@pytest.mark.parametrize("text", ["{", "[1, 2]", "3", "null"])
def test_config_that_is_not_a_json_object_exits_two(points_path, tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["tree", "--instances", points_path, "--family", "convex", "--alpha", "0.5",
                 "--config", str(cfg)]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("head", "x"), ("alpha", "x"), ("sigma", 2.5),
                                         ("variant", "nearest"), ("instances", None)])
def test_config_values_are_checked_like_flags(points_path, tmp_path, field, value):
    cfg = tmp_path / "cfg.json"
    assert main(["prune", "--instances", points_path, "--family", "convex", "--alpha", "0.5",
                 "--k", "2", "--save-config", str(cfg)]) == 0
    doc = json.loads(cfg.read_text())
    doc[field] = value
    cfg.write_text(json.dumps(doc))
    assert main(["prune", "--instances", points_path, "--family", "convex", "--k", "2",
                 "--config", str(cfg)]) == 2


def test_directory_as_input_exits_two(points_path, tmp_path):
    assert main(["validate", "--instances", str(tmp_path)]) == 2
    assert main(["tree", "--instances", points_path, "--family", "convex", "--alpha", "0.5",
                 "--config", str(tmp_path)]) == 2


@pytest.mark.parametrize("flags", [
    ["--family", "power", "--alpha", "nan"],
    ["--family", "average-power", "--alpha", "nan"],
    ["--family", "sigma-power", "--alpha", "nan", "--sigma", "2"],
    ["--family", "sigma-linear", "--weights", "nan,1", "--sigma", "2"],
    ["--family", "sigma-linear", "--weights", "1,inf", "--sigma", "2"],
])
def test_non_finite_rule_parameters_exit_two(points_path, capsys, flags):
    assert main(["tree", "--instances", points_path] + flags) == 2
    assert "error" in capsys.readouterr().err


@pytest.fixture()
def maxqp_path(tmp_path):
    W = np.triu(np.random.default_rng(5).uniform(0.1, 1.0, (5, 5)), 1)
    path = tmp_path / "graph.json"
    save_instance(str(path), MaxQPInstance(n=5, matrix=W + W.T, origin="maxcut"))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["tree", "--family", "convex", "--alpha", "0.5"],
    ["prune", "--family", "convex", "--alpha", "0.5", "--k", "2"],
    ["sweep-alpha", "--family", "convex", "--range", "0,1", "--k", "2"],
    ["erm-alpha", "--family", "convex", "--range", "0,1", "--k", "2"],
    ["erm-joint", "--family", "convex", "--range", "0,1", "--p-range", "1,2", "--k", "2"],
])
def test_clustering_commands_reject_a_maxqp_file(maxqp_path, capsys, argv):
    assert main(argv[:1] + ["--instances", maxqp_path] + argv[1:]) == 2
    assert "ClusteringInstance" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["embed", "erm-slin", "erm-owr", "erm-rprt", "erm-disc"])
def test_rounding_commands_take_one_maxqp_file(points_path, maxqp_path, tmp_path, capsys,
                                               cmd):
    extra = ["--eps", "0.5"] if cmd == "erm-disc" else []
    assert main([cmd, "--instances", points_path] + extra) == 2
    assert "MaxQPInstance" in capsys.readouterr().err
    assert main([cmd, "--instances", f"{maxqp_path},{maxqp_path}"] + extra) == 2
    assert "one instance file" in capsys.readouterr().err
    if cmd != "embed":
        emb = tmp_path / "list.embedding.json"
        emb.write_text("[1, 2]")
        assert main([cmd, "--instances", maxqp_path, "--embedding", str(emb)] + extra) == 2
        assert "embedding must be a JSON object" in capsys.readouterr().err
        save_embedding(str(emb), Embedding(n=3, d=3, vectors=np.eye(3)))
        assert main([cmd, "--instances", maxqp_path, "--embedding", str(emb)] + extra) == 2
        assert "embedding has 3 points, instance has 5" in capsys.readouterr().err
    assert main(["tree", "--instances", f"{points_path},{points_path}", "--family", "convex",
                 "--alpha", "0.5"]) == 2


@pytest.mark.parametrize("flags", [["--H", "nan"], ["--pdim", "inf"], ["--c", "nan"],
                                   ["--eps", "1e-300", "--H", "1e300"]])
def test_sample_size_rejects_non_finite_inputs(capsys, flags):
    base = {"--H": "1", "--eps": "0.1", "--delta": "0.05", "--pdim": "10"}
    base.update(zip(flags[::2], flags[1::2]))
    assert main(["sample-size"] + [x for kv in base.items() for x in kv]) in (2, 3)
    assert "error" in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(maxqp_path):
    assert main(["erm-slin", "--instances", maxqp_path, "--seed", "-1"]) == 1


def test_thread_budget_env(points_path, monkeypatch):
    monkeypatch.setenv("PARTITION_TUNER_THREADS", "2")
    assert main(["validate", "--instances", points_path]) == 0
    monkeypatch.setenv("PARTITION_TUNER_THREADS", "soon")
    assert main(["validate", "--instances", points_path]) == 2
    monkeypatch.setenv("PARTITION_TUNER_THREADS", "-1")
    assert main(["validate", "--instances", points_path]) == 2


def test_console_script_installed(tmp_path):
    exe = shutil.which("partition-tuner")
    assert exe, "console script missing"
    proc = subprocess.run(
        [exe, "sample-size", "--H", "1", "--eps", "0.1",
         "--delta", "0.05", "--pdim", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "m = 1300" in proc.stdout
