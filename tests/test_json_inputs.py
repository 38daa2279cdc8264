"""Every JSON and CSV file the CLI reads, with one leaf or entry made bad.

A round trip writes ``meta.json``, ``latents.json`` and ``model.json``; a grid
file and an experiment spec are written as a user would.  Each case replaces
one leaf of one file (or shortens a list, or removes a key) and runs the
command that reads the file.  The command must either exit 0 with only finite
numbers in the JSON it writes, or exit 2 with a message that names the file
and the key, and write nothing.  The CSV matrices of the round trip are edited
the same way, one entry or row at a time or emptied, and a refusal names the file.
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from graphon_lab.cli import main
from graphon_lab.core import NoiseModel
from graphon_lab.evaluation import rate_bound
from graphon_lab.io import dump_json, load_json

SHORTER, REMOVED = "<one item shorter>", "<key removed>"
BAD_VALUES = (float("nan"), 7.5, -0.5, True, "a", [], {}, 1e308, SHORTER, REMOVED)
FILES = ("meta.json", "latents.json", "model.json", "grid.json", "spec.json")


@pytest.fixture(scope="module")
def round_trip(tmp_path_factory):
    """The five files, and the data the commands read besides them."""
    d = tmp_path_factory.mktemp("round_trip")
    assert main(["synth", "--setup", "rand", "--n", "30", "--m", "20", "--K", "3", "--L", "3",
                 "--noise", "gaussian", "--noise-param", "0.25", "--seed", "1",
                 "--second-copy", "--outdir", str(d)]) == 0
    assert main(["fit", "--K", "3", "--L", "3", "--input", str(d / "H.csv"),
                 "--output", str(d / "model.json")]) == 0
    dump_json(d / "grid.json", {"entries": [[2, 2, 0, 0], [3, 3, 5, 4]]})
    dump_json(d / "spec.json", {
        "name": "prop", "setup": "rand_graphon", "noise": {"kind": "bernoulli"}, "rho": 0.6,
        "K": 2, "L": 2, "n_values": [16], "reps": 1, "inits": ["spectral"], "restarts": 1,
        "seed": 3,
    })
    return d


def _paths(doc, prefix=()):
    """Every path into ``doc`` below its root: each object key, and the first item
    of each list."""
    if prefix:
        yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list) and doc:
        yield from _paths(doc[0], prefix + (0,))


def _node(file, path):
    node = load_json(file)
    for step in path:
        node = node[step]
    return node


def _edited(doc, path, value):
    """``doc`` with the node at ``path`` replaced by ``value``, shortened by one item
    (``SHORTER``) or removed (``REMOVED``)."""
    doc = copy.deepcopy(doc)
    holder = doc
    for step in path[:-1]:
        holder = holder[step]
    if value is REMOVED:
        del holder[path[-1]]
    elif value is SHORTER:
        holder[path[-1]] = holder[path[-1]][:-1]
    else:
        holder[path[-1]] = value
    return doc


def _command(name, files, out):
    """The command that reads the file ``name``, the others at ``files``, output under ``out``."""
    if name == "grid.json":
        return ["ewa", "--grid", files[name], "--beta", "1", "--input", files["H.csv"],
                "--input-prime", files["H_prime.csv"], "--output", str(out / "ewa.json")]
    if name == "spec.json":
        return ["experiment", "--config", files[name], "--outdir", str(out), "--formats", "json"]
    return ["eval", "--model", files["model.json"], "--truth", files["theta_star.csv"],
            "--latents", files["latents.json"], "--meta", files["meta.json"],
            "--input", files["H.csv"], "--metrics", "mse,delta,oracle,rate",
            "--output", str(out / "metrics.json")]


def _reject_constant(token):
    raise ValueError(f"non-finite token {token}")


def _names_the_key(message, path):
    """Whether ``message`` quotes the dotted key of ``path`` or of an object holding
    it, or names the key itself as a word."""
    keys = [step for step in path if isinstance(step, str)]
    dotted = [".".join(keys[:depth]) for depth in range(1, len(keys) + 1)]
    return (any(f"'{key}'" in message for key in dotted)
            or re.search(rf"(?<![\w-]){re.escape(keys[-1])}(?![\w-])", message) is not None)


def _run_edited(round_trip, name, path, value):
    """Run the command that reads ``name`` edited at ``path``; assert it exits 0 with
    finite JSON, or 2 naming the file and the key and writing nothing.  Returns the
    exit code and the message."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {f.name: str(f) for f in round_trip.iterdir()}
        files[name] = str(tmp / name)
        dump_json(files[name], _edited(load_json(round_trip / name), path, value))
        out = tmp / "out"
        out.mkdir()
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(_command(name, files, out))
        message = err.getvalue()
        assert rc in (0, 2), message
        if rc == 0:
            for written in out.rglob("*.json"):
                json.loads(written.read_text(), parse_constant=_reject_constant)
        else:
            assert "Traceback" not in message
            assert files[name] in message and _names_the_key(message, path), message
            assert not any(out.iterdir()), sorted(out.iterdir())
        return rc, message


# each input that exited 0 with a wrong answer, or 2 naming neither the file
# nor the key, before the readers shared one helper
@example(case=("meta.json", ("rho",), float("nan")))
@example(case=("meta.json", ("rho",), -0.5))
@example(case=("meta.json", ("rho",), 0))
@example(case=("meta.json", ("rho",), 1e308))
@example(case=("meta.json", ("noise_model", "sigma2"), 1e307))
@example(case=("meta.json", ("noise_model",), {"kind": "binomial", "N": True}))
@example(case=("meta.json", ("noise_model", "sigma2"), True))
@example(case=("meta.json", ("noise_model",), {"kind": "scaled_poisson", "T": True}))
@example(case=("spec.json", ("noise",), {"kind": "binomial", "N": True}))
@example(case=("spec.json", ("noise",), {}))
@example(case=("spec.json", ("reps",), "three"))
@example(case=("grid.json", ("entries", 0, 0), 2.5))
@example(case=("model.json", ("Q",), SHORTER))
@example(case=("model.json", ("row_labels",), SHORTER))
@example(case=("model.json", ("n",), -1))
@example(case=("meta.json", ("graphon", "params", "rho"), float("nan")))
@example(case=("meta.json", ("graphon", "params", "K"), 0))
@example(case=("meta.json", ("graphon", "params", "seed"), -1))
@example(case=("meta.json", ("graphon", "params", "K"), 10**30))
@example(case=("latents.json", ("U",), SHORTER))
@settings(max_examples=120, deadline=None)
@given(case=st.tuples(st.sampled_from(FILES), st.integers(0, 999), st.sampled_from(BAD_VALUES)))
def test_a_bad_leaf_exits_zero_or_two_naming_the_file_and_key(round_trip, case):
    name, path, value = case
    if isinstance(path, int):  # a drawn path: the n-th of the file's, cyclically
        paths = list(_paths(load_json(round_trip / name)))
        path = paths[path % len(paths)]
    assume(value is not REMOVED or isinstance(path[-1], str))
    assume(value is not SHORTER or isinstance(_node(round_trip / name, path), list))
    _run_edited(round_trip, name, path, value)


@pytest.mark.parametrize("name, path, value", [
    ("meta.json", ("rho",), float("nan")),
    ("meta.json", ("noise_model",), {"kind": "binomial", "N": True}),
    ("grid.json", ("entries", 0, 0), 2.5),
    ("spec.json", ("noise",), {}),
    ("model.json", ("Q",), SHORTER),
], ids=["rho-nan", "binomial-N-true", "fractional-K", "noise-empty", "Q-short"])
def test_a_leaf_no_reader_takes_exits_two_naming_the_file_and_key(round_trip, name, path,
                                                                    value):
    # one refusal of each file a command reads: exit 2, the file and the quoted key
    rc, message = _run_edited(round_trip, name, path, value)
    assert rc == 2 and f"'{path[0]}" in message, message


LONGER, EMPTIED = "<one item longer>", "<file emptied>"
CSV_FILES = ("H.csv", "H_prime.csv", "theta_star.csv")
CSV_EDITS = (1e155, -1e200, 1e308, "x", SHORTER, LONGER, EMPTIED)


def _csv_edited(text, i, j, edit):
    """``text`` emptied, or with its ``i``-th row one entry shorter or longer, or with the
    ``j``-th entry of that row replaced by ``edit``; indices wrap around."""
    if edit is EMPTIED:
        return ""
    rows = [line.split(",") for line in text.splitlines()]
    row = rows[i % len(rows)]
    if edit is SHORTER:
        row.pop()
    elif edit is LONGER:
        row.append(row[-1])
    else:
        row[j % len(row)] = str(edit)
    return "".join(",".join(r) + "\n" for r in rows)


def _csv_command(name, files, out):
    """The command that reads the matrix ``name``: ``fit`` for H, ``ewa`` for H' and
    ``eval`` for the truth."""
    if name == "H.csv":
        return ["fit", "--K", "3", "--L", "3", "--input", files[name],
                "--output", str(out / "model.json")]
    return _command("grid.json" if name == "H_prime.csv" else "meta.json", files, out)


def _run_csv_edited(round_trip, name, i, j, edit):
    """Run the command that reads the matrix ``name`` edited by :func:`_csv_edited`;
    assert it exits 0 with finite JSON, or 2 naming the file and writing nothing, with
    no traceback and no warning either way.  Returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {f.name: str(f) for f in round_trip.iterdir()}
        files[name] = str(tmp / name)
        Path(files[name]).write_text(_csv_edited((round_trip / name).read_text(), i, j, edit))
        out = tmp / "out"
        out.mkdir()
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(_csv_command(name, files, out))
        message = err.getvalue()
        assert rc in (0, 2) and "Traceback" not in message, message
        assert not caught, [str(w.message) for w in caught]
        if rc == 0:
            for written in out.rglob("*.json"):
                json.loads(written.read_text(), parse_constant=_reject_constant)
        else:
            assert files[name] in message, message
            assert not any(out.iterdir()), sorted(out.iterdir())
        return rc


# a short row and an empty file used to exit 2 naming no file, the empty file after
# numpy's warning
@example(case=("H.csv", 5, 0, SHORTER))
@example(case=("H.csv", 0, 0, EMPTIED))
@settings(max_examples=60, deadline=None)
@given(case=st.tuples(st.sampled_from(CSV_FILES), st.integers(0, 999), st.integers(0, 999),
                      st.sampled_from(CSV_EDITS)))
def test_a_bad_csv_entry_exits_zero_or_two_naming_the_file(round_trip, case):
    _run_csv_edited(round_trip, *case)


@pytest.mark.parametrize("edit", [SHORTER, EMPTIED], ids=["short-row", "empty"])
def test_a_short_row_or_an_empty_H_exits_two(round_trip, edit):
    # fit refuses both, naming the file, with no warning and no model written
    assert _run_csv_edited(round_trip, "H.csv", 5, 0, edit) == 2


_RHO_RULE = r"^rho must be a number in \(0, 1e\+100\], got "


@pytest.mark.parametrize("rho", [float("nan"), -0.5, 0.0, math.inf, 1e200])
def test_rate_bound_refuses_a_rho_that_is_not_finite_and_positive(rho):
    # core.check_rho's rule: 1e200 used to give a bound of 3.6e200
    with pytest.raises(ValueError, match=rf"{_RHO_RULE}{re.escape(repr(rho))}$"):
        rate_bound(NoiseModel.bernoulli(), rho, 30, 20, 3, 3)


@pytest.mark.parametrize("noise, rho", [(NoiseModel.bernoulli(), 1e308),
                                        (NoiseModel.gaussian(1e307), 0.5)])
def test_rate_bound_refuses_a_bound_that_is_not_finite(noise, rho):
    # a rho beyond check_rho's rule is refused by that rule before the bound is formed
    message = (rf"{_RHO_RULE}1e\+308$" if noise.kind == "bernoulli"
               else r"rho 0\.5 with noise model .* inf;")
    with pytest.raises(ValueError, match=message):
        rate_bound(noise, rho, 30, 20, 3, 3)


@pytest.fixture(scope="module")
def bernoulli_trip(tmp_path_factory):
    d = tmp_path_factory.mktemp("bernoulli_trip")
    assert main(["synth", "--setup", "rand", "--n", "30", "--m", "20", "--K", "3", "--L", "3",
                 "--seed", "1", "--outdir", str(d)]) == 0
    assert main(["fit", "--K", "3", "--L", "3", "--input", str(d / "H.csv"),
                 "--output", str(d / "model.json")]) == 0
    return d


@pytest.mark.parametrize(
    "key, value",
    [("rho", float("nan")), ("rho", -0.5), ("rho", 0), ("rho", 1e308),
     ("noise_model", {"kind": "gaussian", "sigma2": 1e307})],
    ids=["rho-nan", "rho-negative", "rho-zero", "rho-huge", "sigma2-huge"],
)
def test_eval_rate_refuses_what_it_cannot_bound(bernoulli_trip, tmp_path, capsys, key, value):
    # these used to exit 0 with a rate_bound of NaN, -0.75, 0.0 or Infinity
    meta = load_json(bernoulli_trip / "meta.json")
    meta[key] = value
    meta_path = tmp_path / "meta.json"
    dump_json(meta_path, meta)
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--model", str(bernoulli_trip / "model.json"),
               "--truth", str(bernoulli_trip / "theta_star.csv"), "--meta", str(meta_path),
               "--metrics", "rate", "--output", str(out)])
    assert rc == 2
    assert f"{meta_path} key 'rho'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["meta.json", "spec.json"])
def test_binomial_N_true_exits_two(bernoulli_trip, tmp_path, capsys, name):
    # JSON true loads as 1, and used to run as N = 1
    noise = {"kind": "binomial", "N": True}
    path, out = tmp_path / name, tmp_path / "out"
    if name == "meta.json":
        dump_json(path, {**load_json(bernoulli_trip / "meta.json"), "noise_model": noise})
        argv = ["eval", "--model", str(bernoulli_trip / "model.json"),
                "--truth", str(bernoulli_trip / "theta_star.csv"), "--meta", str(path),
                "--metrics", "rate", "--output", str(out)]
    else:
        dump_json(path, {"name": "n_true", "setup": "rand_graphon", "noise": noise, "K": 2,
                         "L": 2, "n_values": [16], "reps": 1, "inits": ["spectral"]})
        argv = ["experiment", "--config", str(path), "--outdir", str(out)]
    assert main(argv) == 2
    key = "noise_model" if name == "meta.json" else "noise"
    assert f"{path} key {key!r}: binomial noise needs a positive integer N, got True" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("noise", [{"kind": "gaussian", "sigma2": True},
                                   {"kind": "scaled_poisson", "T": True}], ids=["sigma2", "T"])
def test_a_noise_parameter_true_exits_two(bernoulli_trip, tmp_path, capsys, noise):
    # JSON true loads as 1, and used to exit 0 with the rate bound of sigma2 = 1 (T = 1)
    path, out = tmp_path / "meta.json", tmp_path / "metrics.json"
    dump_json(path, {**load_json(bernoulli_trip / "meta.json"), "noise_model": noise})
    rc = main(["eval", "--model", str(bernoulli_trip / "model.json"),
               "--truth", str(bernoulli_trip / "theta_star.csv"), "--meta", str(path),
               "--metrics", "rate", "--output", str(out)])
    assert rc == 2
    assert f"{path} key 'noise_model': {noise['kind']} noise needs a finite positive" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("noise, rho, message",
                         [({"kind": "gaussian", "sigma2": 1e307}, 0.5, "rate bound at rho 0.5"),
                          ({"kind": "bernoulli"}, 7.5, "bernoulli means must lie in [0, 1]")])
def test_a_refusal_in_a_cell_names_the_spec(tmp_path, capsys, noise, rho, message):
    # raised while the cells run: the overflowing bound used to be recorded as inf,
    # and both messages named no file
    path, out = tmp_path / "spec.json", tmp_path / "out"
    dump_json(path, {"name": "cell", "setup": "rand_graphon", "noise": noise, "rho": rho,
                     "K": 2, "L": 2, "n_values": [16], "reps": 1, "inits": ["spectral"]})
    assert main(["experiment", "--config", str(path), "--outdir", str(out)]) == 2
    assert f"{path}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_flags_over_a_spec_that_is_not_an_object_exit_two(tmp_path, capsys):
    # --reps used to be written into the decoded list: a TypeError traceback
    path = tmp_path / "spec.json"
    path.write_text("[1]")
    assert main(["experiment", "--config", str(path), "--reps", "2",
                 "--outdir", str(tmp_path / "out")]) == 2
    assert f"{path} must be an object, got [1]" in capsys.readouterr().err
