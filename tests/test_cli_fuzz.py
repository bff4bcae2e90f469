"""Command-line fuzzing: malformed instance and embedding files, configs and
flag values.

Whatever the input, ``main`` must end in one of its documented exit codes
(0 success, 1 usage, 2 bad data, 3 numeric failure) with a message, never
with an exception escaping it or a traceback on stderr.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_tuner import ClusteringInstance, Embedding, save_embedding, save_instance
from partition_tuner.cli import main
from partition_tuner.instances import MaxQPInstance

NUM = ["nan", "inf", "-inf", "-1", "0", "1", "2", "0.5", "-0.5", "1e308", "1e-300", "x"]
INT = ["-1", "0", "1", "2", "3", "x"]
FAM = ["convex", "power", "average-power", "sigma-linear", "sigma-power", "ward"]

_pair = st.builds(lambda a, b: f"{a},{b}", st.sampled_from(NUM), st.sampled_from(NUM))
_value = {"NUM": st.sampled_from(NUM), "INT": st.sampled_from(INT),
          "FAM": st.sampled_from(FAM), "PAIR": _pair}

# each command with its optional flags and the kind of value each takes
COMMANDS = {
    "tree": {"--family": "FAM", "--alpha": "NUM", "--weights": "PAIR", "--sigma": "INT"},
    "prune": {"--family": "FAM", "--alpha": "NUM", "--k": "INT", "--p": "NUM",
              "--obj-p": "NUM", "--sigma": "INT"},
    "sweep-alpha": {"--family": "FAM", "--range": "PAIR", "--k": "INT", "--p": "NUM",
                    "--tol": "NUM", "--sigma": "INT"},
    "erm-alpha": {"--family": "FAM", "--range": "PAIR", "--k": "INT", "--p": "NUM",
                  "--sigma": "INT"},
    "erm-joint": {"--family": "FAM", "--range": "PAIR", "--p-range": "PAIR", "--k": "INT"},
    "validate": {"--tol": "NUM"},
    "embed": {"--rank": "INT", "--max-iters": "INT", "--grad-tol": "NUM", "--seed": "INT"},
    "erm-slin": {"--samples": "INT", "--seed": "INT"},
    "erm-owr": {"--samples": "INT"},
    "erm-rprt": {"--samples": "INT"},
    "erm-disc": {"--eps": "NUM", "--cap": "INT", "--samples": "INT"},
    "sample-size": {"--H": "NUM", "--eps": "NUM", "--delta": "NUM", "--pdim": "NUM",
                    "--c": "NUM"},
    "pdim": {"--family": "FAM", "--n": "INT", "--sigma": "INT", "--beta": "INT"},
    "gen": {"--alpha-star": "NUM", "--p": "NUM", "--alphas": "PAIR", "--offsets": "PAIR",
            "--rounds": "INT", "--n": "INT", "--j": "INT", "--family": "FAM"},
}
FILE_COMMANDS = {"tree", "prune", "sweep-alpha", "erm-alpha", "erm-joint", "validate",
                 "embed", "erm-slin", "erm-owr", "erm-rprt", "erm-disc"}
EMBEDDING_COMMANDS = {"erm-slin", "erm-owr", "erm-rprt", "erm-disc"}

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([0.5, -1.0, 1e308])
    | st.text(max_size=3) | st.sampled_from([[0.5, 1.7, 2.9], "many"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(5, 2))
    D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    save_instance(str(root / "points.json"), ClusteringInstance(n=5, dist=D))
    save_instance(str(root / "pair.json"), ClusteringInstance(n=2, dist=[[0, 1], [1, 0]]))
    W = np.triu(rng.uniform(0.1, 1.0, (5, 5)), 1)
    save_instance(str(root / "graph.json"), MaxQPInstance(n=5, matrix=W + W.T, origin="maxcut"))
    U = rng.normal(size=(5, 3))
    save_embedding(str(root / "emb.json"),
                   Embedding(n=5, d=3, vectors=U / np.linalg.norm(U, axis=1, keepdims=True)))
    (root / "bytes.json").write_bytes(b"\xff\xfe\x00")
    (root / "list.json").write_text("[1, 2]")
    return root


def _malformed(draw, path):
    """The JSON document at path with one field deleted or replaced."""
    doc = json.loads(path.read_text())
    field = draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        del doc[field]
    else:
        doc[field] = draw(_json)
    return json.dumps(doc)


@st.composite
def invocations(draw, root):
    cmd = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [cmd]
    if cmd == "gen":
        argv.append(draw(st.sampled_from(["two-gadget", "oscillation", "general-lb", "k4"])))
    for flag, kind in COMMANDS[cmd].items():
        if draw(st.booleans()):
            argv += [flag, draw(_value[kind])]
    emb = None
    if cmd in EMBEDDING_COMMANDS:
        emb = draw(st.sampled_from([None, "emb", "missing", "bad_emb", "bytes", "list"]))
        if emb == "bad_emb":
            (root / "bad_emb.json").write_text(_malformed(draw, root / "emb.json"))
        if emb:
            argv += ["--embedding", str(root / f"{emb}.json")]
    if cmd in FILE_COMMANDS:
        # an embedding is read only after the one instance file that it fits
        choice = "graph" if emb else draw(st.sampled_from(
            ["points", "pair", "graph", "both", "dir", "missing", "malformed"]))
        if choice == "malformed":
            source = root / draw(st.sampled_from(["points.json", "graph.json"]))
            (root / "malformed.json").write_text(_malformed(draw, source))
        paths = {"both": f"{root / 'points.json'},{root / 'graph.json'}", "dir": str(root),
                 "missing": str(root / "missing.json")}
        argv += ["--instances", paths.get(choice, str(root / f"{choice}.json"))]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from([str(root / "out.json"), str(root)]))]
    config = draw(st.sampled_from([None, "text", "object"]))
    if config == "text":
        (root / "cfg.json").write_text(draw(st.sampled_from(["{", "[1]", "3", "null", ""])))
    elif config == "object":
        fields = draw(st.dictionaries(st.sampled_from(["head", "alpha", "k", "range", "tol",
                                                       "seed", "samples", "zzz"]), _json,
                                      max_size=2))
        (root / "cfg.json").write_text(json.dumps({"command": cmd, **fields}))
    if config:
        argv += ["--config", str(root / "cfg.json")]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_ends_in_a_documented_exit_code(files, data):
    argv = data.draw(invocations(files))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 1, 2, 3), (argv, rc)
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize("field,value", [("ground_truth", [0.5, 1.7, 2.9, 3.2, 4.6]),
                                         ("ground_truth", [0, 1, 2, 3, 4.0]),
                                         ("k_hint", "many"), ("k_hint", 2.5)])
@pytest.mark.parametrize("argv", [["tree", "--family", "convex", "--alpha", "0.5"],
                                  ["erm-alpha", "--family", "convex", "--range", "0,1", "--k", "2"],
                                  ["validate"]])
def test_ill_typed_labels_and_hints_exit_two(files, field, value, argv, capsys):
    # labels and hints are checked as integers, not truncated or kept as given
    doc = json.loads((files / "points.json").read_text())
    doc[field] = value
    path = files / "labels.json"
    path.write_text(json.dumps(doc))
    assert main([*argv, "--instances", str(path)]) == 2
    assert field in capsys.readouterr().err
