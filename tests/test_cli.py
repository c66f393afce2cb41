import argparse
import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lutzlab import cli, distance, family


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = cli.main(["--out", str(out)] + list(argv))
    return code, out


def test_fold_command(tmp_path, capsys):
    code, out = run(tmp_path, "distance", "fold", "--a1", "1", "--a2", "3",
                    "--ball", "0.5", "--delta", "0.4")
    assert code == 0
    text = capsys.readouterr().out
    assert f"{math.log(6.0):.17g}"[:12] in text
    assert f"{math.log(5.6):.17g}"[:12] in text
    doc = json.loads((out / "folding.json").read_text())
    assert doc["folding_bound"] == pytest.approx(math.log(5.6), abs=1e-14)


@pytest.mark.parametrize("areas", [("0", "3", "0.5"), ("1", "3", "-0.5")],
                         ids=["a1_zero", "ball_negative"])
def test_fold_non_positive_area_is_input_error(tmp_path, capsys, areas):
    a1, a2, ball = areas
    code, out = run(tmp_path, "distance", "fold", "--a1", a1, "--a2", a2,
                    "--ball", ball, "--delta", "0.4")
    assert code == 2
    assert "ellipsoid areas must be positive" in capsys.readouterr().err
    assert not (out / "folding.json").exists()


def test_manifest_written(tmp_path):
    code, out = run(tmp_path, "distance", "gray", "--u-start", "0.04",
                    "--u-end", "0.06")
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "distance gray"
    assert "gray.json" in manifest["outputs"]
    for name in manifest["outputs"]:
        assert (out / name).exists()
    assert "lutzlab" in manifest["versions"]
    # the one check it runs: the tolerance the Gray quadrature integrates
    # to, not numerics' default
    assert manifest["tolerances"] == {"gray_simpson_abs": distance._GRAY_TOL}


@pytest.mark.parametrize("argv", [
    ("family", "embed", "--a", "0", "--b", "-3.2"),
    ("family", "sweep", "--a-grid", "0", "0.18", "2", "--b-grid", "-3.6",
     "-2.9", "2"),
    ("distance", "upper", "--a1", "0", "--b1", "-3.2", "--a2", "0.3",
     "--b2", "-3.0"),
    ("distance", "sandwich", "--a-grid", "0", "0.18", "2", "--b-grid",
     "-3.6", "-2.9", "2"),
])
def test_manifest_records_the_family_certificate(tmp_path, argv):
    code, out = run(tmp_path, *argv)
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    cert = manifest["family_certificate"]
    assert cert["u_range"] == [0.01, 0.15]
    assert cert["contact_sign"] == 1
    assert cert["margin"] == pytest.approx(0.93, abs=0.005)
    assert cert["method"] == family.GRAY_METHOD
    # no timings: the manifest is as deterministic as the artifacts
    assert sorted(cert) == ["contact_sign", "margin", "method", "u_range"]


def test_manifest_without_a_model_has_no_family_certificate(tmp_path):
    code, out = run(tmp_path, "distance", "fold", "--a1", "1", "--a2", "3",
                    "--ball", "0.5", "--delta", "0.1")
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "family_certificate" not in manifest


@pytest.mark.parametrize("n", ["0", "1", "-2"])
def test_family_embed_rejects_dimension_below_two(tmp_path, capsys, n):
    code, out = run(tmp_path, "family", "embed", "--a", "0", "--b", "-3.2",
                    "--n", n)
    assert code == 2
    assert capsys.readouterr().err == (
        f"input error: dimension n must be at least 2, got {n}\n")
    assert not (out / "formspec.json").exists()


def test_profile_build_and_check(tmp_path, capsys):
    code, out = run(tmp_path, "profile", "build", "--epsilon0", "0.05",
                    "--u", "0.05")
    assert code == 0
    assert (out / "profile.csv").read_text().startswith(
        "r,h1,h2,h1p,h2p,D")
    code2 = cli.main(["--out", str(tmp_path / "chk"), "profile", "check",
                      "--in", str(out / "profile.json"), "--grid", "2000"])
    assert code2 == 0


def test_family_embed_base_point(tmp_path, capsys):
    from lutzlab.family import FamilyDefaults
    b = math.log(FamilyDefaults().l_base)
    code, out = run(tmp_path, "family", "embed", "--a", "0", "--b", str(b))
    assert code == 0
    doc = json.loads((out / "formspec.json").read_text())
    assert doc["k"] == pytest.approx(1.0)
    assert doc["certified"] is True


def test_persist_barcode_zero_differential(tmp_path):
    dga_path = tmp_path / "dga.json"
    dga_path.write_text(json.dumps({
        "generators": [{"name": "x", "degree": 1, "action": 3.0}],
        "differential": {}, "action_cap": 10.0, "word_cap": 3}))
    code, out = run(tmp_path, "persist", "barcode", "--in", str(dga_path))
    assert code == 0
    lines = (out / "barcode.csv").read_text().strip().splitlines()
    assert lines[0] == "label,birth,death"
    assert all(line.endswith(",inf") for line in lines[1:])


def test_persist_check_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "generators": [{"name": "x", "degree": 1, "action": 3.0}],
        "differential": {"x": [{"coeff": "1", "word": []}]},
        "action_cap": 10.0, "word_cap": 3}))
    code, _ = run(tmp_path, "persist", "check", "--in", str(good))
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "generators": [{"name": "y", "degree": 1, "action": 1.0},
                       {"name": "x", "degree": 0, "action": 3.0}],
        "differential": {"x": [{"coeff": "1", "word": ["y"]}],
                         "y": [{"coeff": "1", "word": []}]},
        "action_cap": 10.0, "word_cap": 3}))
    code, _ = run(tmp_path, "persist", "check", "--in", str(bad))
    assert code == 1


@pytest.mark.parametrize("name", ["a,b", "x^2", ""])
def test_persist_barcode_refuses_bad_generator_names(tmp_path, name):
    dga_path = tmp_path / "dga.json"
    dga_path.write_text(json.dumps({
        "generators": [{"name": "x", "degree": 1, "action": 3.0},
                       {"name": name, "degree": 1, "action": 5.0}],
        "differential": {"x": [{"coeff": "1", "word": []}]},
        "action_cap": 10.0, "word_cap": 4}))
    code, out = run(tmp_path, "persist", "barcode", "--in", str(dga_path))
    assert code == 2
    assert not (out / "barcode.csv").exists()


def test_input_error_exit_code(tmp_path):
    code, _ = run(tmp_path, "persist", "barcode", "--in", "/nope.json")
    assert code == 2
    code2 = cli.main(["distance", "bogus-subcommand"])
    assert code2 == 2


@pytest.mark.parametrize("argv", [
    ("family", "embed", "--a", "nan", "--b", "-3.2"),
    ("family", "embed", "--a", "inf", "--b", "-3.2"),
    ("family", "embed", "--a", "0", "--b", "nan"),
    ("distance", "upper", "--a1", "nan", "--b1", "-3.2", "--a2", "0.1",
     "--b2", "-3.0"),
    ("family", "sweep", "--a-grid", "0", "nan", "3", "--b-grid", "-3.6",
     "-2.9", "3"),
], ids=["embed_a_nan", "embed_a_inf", "embed_b_nan", "upper_a1_nan",
        "sweep_grid_nan"])
def test_non_finite_point_is_input_error(tmp_path, capsys, argv):
    # refused while parsing, by the flag that carries the value
    code, _ = run(tmp_path, *argv)
    assert code == 2
    i = next(i for i, v in enumerate(argv) if v in ("nan", "inf"))
    flag = next(a for a in reversed(argv[:i]) if a.startswith("--"))
    assert f"argument {flag}: not a finite number" in capsys.readouterr().err


def _float_flags():
    """(command, flag, nargs) of every option that takes a float."""
    for group, sub in _subparsers(cli.build_parser()):
        for cmd, leaf in _subparsers(sub):
            for action in leaf._actions:
                assert action.type is not float, (group, cmd, action.dest)
                if action.type is cli.finite_float:
                    yield (group, cmd), action.option_strings[0], action.nargs


def _subparsers(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices.items()


_FLOAT_FLAGS = list(_float_flags())


@pytest.mark.parametrize("command, flag, nargs", _FLOAT_FLAGS,
                         ids=[f"{group}-{cmd}{flag}"
                              for (group, cmd), flag, _ in _FLOAT_FLAGS])
def test_every_float_flag_refuses_non_finite_values(tmp_path, capsys,
                                                    command, flag, nargs):
    # "-inf" would read as an option unless joined to its flag
    for value in ("nan", "inf") + (("-inf",) if nargs is None else ()):
        argv = ([*command, f"{flag}={value}"] if nargs is None
                else [*command, flag, value] + ["1"] * (nargs - 1))
        code, _ = run(tmp_path, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: not a finite number: '{value}'" in err


def test_gray_command(tmp_path, capsys):
    code, out = run(tmp_path, "distance", "gray", "--u-start", "0.04",
                    "--u-end", "0.06")
    assert code == 0
    doc = json.loads((out / "gray.json").read_text())
    assert doc["value"] == pytest.approx(math.log(1.5), rel=1e-6)


def test_gray_refuses_u(tmp_path, capsys):
    # the leg runs from --u-start to --u-end, so there is no --u to take
    code, _ = run(tmp_path, "distance", "gray", "--u-start", "0.04",
                  "--u-end", "0.06", "--u", "0.04")
    assert code == 2
    assert "ambiguous option: --u could match --u-start, --u-end" \
        in capsys.readouterr().err


def test_sandwich_determinism(tmp_path):
    args = ["distance", "sandwich", "--a-grid", "0", "0.15", "2",
            "--b-grid", "-3.2", "-2.82", "2"]
    _, out1 = run(tmp_path / "r1", *args)
    _, out2 = run(tmp_path / "r2", *args)
    assert (out1 / "sandwich.csv").read_bytes() \
        == (out2 / "sandwich.csv").read_bytes()


def test_sandwich_single_point_is_input_error(tmp_path, capsys):
    code, _ = run(tmp_path, "distance", "sandwich", "--a-grid", "0", "0.18",
                  "1", "--b-grid", "-3.2", "-3.2", "1")
    assert code == 2
    assert "at least two points" in capsys.readouterr().err


def test_scaling_command(tmp_path):
    code, out = run(tmp_path, "family", "scaling", "--a", "0.05",
                    "--b", str(math.log(0.04)), "--c", "2.0")
    assert code == 0
    doc = json.loads((out / "scaling.json").read_text())
    assert doc["passed"] is True


def test_reeb_subcommands(tmp_path):
    code, out = run(tmp_path, "profile", "build", "--epsilon0", "0.05",
                    "--u", "0.05")
    assert code == 0
    spec = str(out / "profile.json")
    code, o = run(tmp_path / "scan", "reeb", "scan", "--in", spec,
                  "--pq-max", "1", "--grid", "2000")
    assert code == 0
    assert (o / "orbits.csv").read_text().startswith(
        "r0,p,q,period,action,morse_bott")
    code, _ = run(tmp_path / "scan1", "reeb", "scan", "--in", spec,
                  "--grid", "1")
    assert code == 2
    code, o = run(tmp_path / "min", "reeb", "minima", "--in", spec)
    assert code == 0
    doc = json.loads((o / "minima.json").read_text())
    assert doc["r_plus"] == pytest.approx(0.25, abs=1e-8)
    code, o = run(tmp_path / "cz", "reeb", "cz", "--in", spec,
                  "--k-max", "2")
    assert code == 0
    assert "degenerate" in (o / "core_cz.json").read_text()
    code, o = run(tmp_path / "pert", "reeb", "perturb", "--in", spec)
    assert code == 0
    doc = json.loads((o / "perturbed.json").read_text())
    assert doc["degree_hyperbolic"] == 1
    # the README profile's window sup exceeds 1/u: the artifacts are still
    # written, and the failed smoothing bound exits 1
    code, o = run(tmp_path / "mol", "profile", "mollify", "--in", spec)
    assert code == 1
    assert (o / "profile_mollified.csv").exists()


@pytest.mark.parametrize("k_max", ["0", "-2"])
def test_reeb_cz_refuses_no_covers(tmp_path, capsys, k_max):
    code, out = run(tmp_path, "profile", "build", "--epsilon0", "0.05",
                    "--u", "0.05")
    assert code == 0
    code, o = run(tmp_path / "cz", "reeb", "cz", "--in",
                  str(out / "profile.json"), "--k-max", k_max)
    assert code == 2
    assert capsys.readouterr().err.endswith(
        f"input error: k_max must be at least 1, got {k_max}\n")
    assert not (o / "core_cz.json").exists()


def assert_outputs_exist(out):
    manifest = json.loads((out / "run_manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out / name).exists(), name


@pytest.mark.parametrize("samples", ["0", "1", "-4"])
def test_profile_csv_refuses_fewer_than_two_samples(tmp_path, capsys,
                                                    samples):
    code, out = run(tmp_path, "profile", "build", "--epsilon0", "0.05",
                    "--u", "0.05", "--samples", samples)
    assert code == 2
    want = f"input error: samples must be at least 2, got {samples}\n"
    assert capsys.readouterr().err == want
    assert not (out / "profile.csv").exists()
    # the manifest lists what the run wrote, not what it was refused
    assert_outputs_exist(out)
    code, out = run(tmp_path / "ok", "profile", "build", "--epsilon0",
                    "0.05", "--u", "0.05")
    assert code == 0
    code, o = run(tmp_path / "mol", "profile", "mollify", "--in",
                  str(out / "profile.json"), "--samples", samples)
    assert code == 2
    assert capsys.readouterr().err.endswith(want)
    assert not (o / "profile_mollified.csv").exists()
    assert_outputs_exist(o)


@pytest.mark.parametrize("argv", ["family sweep", "distance sandwich"])
@pytest.mark.parametrize("axis, count", [("a", "2.5"), ("a", "0"),
                                         ("b", "-1"), ("b", "2.9")])
def test_grid_refuses_counts_that_are_not_whole_and_positive(
        tmp_path, capsys, argv, axis, count):
    grids = {"a": ["0", "0.18", "3"], "b": ["-3.6", "-2.9", "2"]}
    grids[axis][2] = count
    code, out = run(tmp_path, *argv.split(), "--a-grid", *grids["a"],
                    "--b-grid", *grids["b"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"input error: --{axis}-grid needs a whole number N >= 1, "
        f"got {count}\n")
    # refused before any model is built or any artifact written
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["outputs"] == []
    assert "family_certificate" not in manifest


def test_family_sweep_and_bounds_commands(tmp_path):
    code, out = run(tmp_path, "family", "sweep",
                    "--a-grid", "0", "0.2", "2",
                    "--b-grid", "-3.6", "-2.9", "2")
    assert code == 0
    lines = (out / "family_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "a,b,k,l,volume,l_inv,sys_ratio,cert_flags"
    assert len(lines) == 5
    code, o = run(tmp_path / "lo", "distance", "lower", "--a1", "0",
                  "--b1", str(math.log(0.04)), "--a2", str(math.log(2.0)),
                  "--b2", str(math.log(0.06)))
    assert code == 0
    doc = json.loads((o / "certificate_lower.json").read_text())
    assert doc["lower"] == pytest.approx(math.log(2.0), abs=1e-12)
    code, o = run(tmp_path / "up", "distance", "upper", "--a1", "0",
                  "--b1", str(math.log(0.04)), "--a2", str(math.log(2.0)),
                  "--b2", str(math.log(0.06)))
    assert code == 0
    doc = json.loads((o / "certificate_upper.json").read_text())
    assert doc["upper"] == pytest.approx(
        math.log(2.0) + math.log(4.0 / 3.0), rel=1e-9)


def test_cli_import_leaves_out_scipy_integrate():
    # no scipy module at all: scipy is a test dependency, and the ODE
    # oracle that integrates with scipy.integrate lives in tests/oracles.py
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, lutzlab.cli; "
            "sys.exit(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy') or 0)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _imported(nodes):
    """The modules that the import statements among `nodes` load, with
    relative imports resolved against lutzlab."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "lutzlab." if node.level else ""
            if node.module:
                yield base + node.module
            else:
                yield from (base + a.name for a in node.names)


def _import_time_nodes(tree):
    """Every node that runs when the module is imported: all but the
    bodies of its functions."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def test_package_imports_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src" / "lutzlab"
    found = [(path.name, m) for path in sorted(src.glob("*.py"))
             for m in _imported(ast.walk(_parse(path)))
             if m.split(".")[0] == "scipy"]
    assert found == []


def test_cli_and_persistence_import_no_numerics():
    # the CLI imports each numeric module in the command that uses it, so
    # importing it, or running a persist command, loads no numpy
    numeric = {"lutzlab.profile", "lutzlab.reeb", "lutzlab.family",
               "lutzlab.distance", "lutzlab.numerics"}
    src = Path(__file__).resolve().parent.parent / "src" / "lutzlab"
    found = [(name, m)
             for name in ("__init__.py", "errors.py", "cli.py",
                          "persistence.py")
             for m in _imported(_import_time_nodes(_parse(src / name)))
             if m.split(".")[0] == "numpy" or m in numeric]
    assert found == []


# Commands with their documented exit codes, run in one interpreter where
# any import of one package fails as if the package were not installed.
_REFUSING_RUN = """
import json, sys

class Refuse:
    def __init__(self, package):
        self.package = package

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == self.package:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, Refuse(sys.argv[1]))
from lutzlab import cli, persistence  # both import under the refusal

out, runs = sys.argv[2], json.loads(sys.argv[3])
codes = [cli.main(["--out", f"{out}/{i}"] + argv)
         for i, (argv, _) in enumerate(runs)]
print(json.dumps({"codes": codes,
                  "metadata": "importlib.metadata" in sys.modules}))
"""


def run_refusing(package, tmp_path, runs):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _REFUSING_RUN, package, str(tmp_path),
         json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [code for _, code in runs]
    return result


def readme_dga(tmp_path):
    dga = tmp_path / "dga.json"
    dga.write_text(json.dumps({
        "generators": [{"name": "x", "degree": 1, "action": 3.0},
                       {"name": "y", "degree": 1, "action": 5.0}],
        "differential": {"x": [{"coeff": "1", "word": []}]},
        "action_cap": 10.0, "word_cap": 4}))
    return str(dga)


# the tolerances in force in a command that builds a model
MODEL_TOLERANCES = ["contact_pass", "round_trip_l", "round_trip_volume"]


def test_readme_commands_run_without_scipy(tmp_path):
    profile_json = str(tmp_path / "0" / "profile.json")
    dga = readme_dga(tmp_path)
    runs = [
        (["profile", "build", "--epsilon0", "0.05", "--u", "0.05"], 0),
        (["profile", "check", "--in", profile_json], 0),
        (["reeb", "scan", "--in", profile_json, "--pq-max", "2"], 0),
        (["reeb", "minima", "--in", profile_json], 0),
        # the README profile fails the smoothing bound (38.57 > 1/u = 20)
        (["profile", "mollify", "--in", profile_json], 1),
        (["family", "embed", "--a", "0", "--b", "-3.2"], 0),
        (["family", "sweep", "--a-grid", "0", "0.18", "3",
          "--b-grid", "-3.6", "-2.9", "3"], 0),
        (["distance", "fold", "--a1", "1", "--a2", "3", "--ball", "0.5",
          "--delta", "0.4"], 0),
        (["distance", "sandwich", "--a-grid", "0", "0.18", "5",
          "--b-grid", "-4.30", "-2.82", "5"], 0),
        (["persist", "barcode", "--in", dga], 0),
    ]
    result = run_refusing("scipy", tmp_path, runs)
    # the manifest's versions need no installed-package metadata
    assert result["metadata"] is False
    for i, (argv, _) in enumerate(runs):
        manifest = json.loads(
            (tmp_path / str(i) / "run_manifest.json").read_text())
        if argv[0] == "persist":
            # exact rationals: no float tolerance and no numpy in force
            assert sorted(manifest["versions"]) == ["lutzlab", "python"]
            assert manifest["tolerances"] == {}
        else:
            assert sorted(manifest["versions"]) == ["lutzlab", "numpy",
                                                    "python"]
            # the tolerances of the checks each command runs
            expected = {"profile check": ["contact_pass"],
                        "family embed": MODEL_TOLERANCES,
                        "family sweep": MODEL_TOLERANCES,
                        "distance sandwich": MODEL_TOLERANCES}
            assert sorted(manifest["tolerances"]) == expected.get(
                " ".join(argv[:2]), [])


def test_profile_build_loads_neither_family_nor_distance(tmp_path):
    # the manifest copies no tolerance out of modules the command never
    # runs, so a fresh interpreter does not import them
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; from lutzlab import cli; "
            "code = cli.main(['--out', sys.argv[1], 'profile', 'build']); "
            "print(sorted(m for m in ('lutzlab.family', 'lutzlab.distance') "
            "if m in sys.modules)); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["tolerances"] == {}


def test_persist_commands_run_without_numpy(tmp_path):
    dga = readme_dga(tmp_path)
    runs = [(["persist", "barcode", "--in", dga], 0),
            (["persist", "check", "--in", dga], 0)]
    run_refusing("numpy", tmp_path, runs)
    code, out = run(tmp_path / "with_numpy", "persist", "barcode",
                    "--in", dga)
    assert code == 0
    assert ((tmp_path / "0" / "barcode.csv").read_bytes()
            == (out / "barcode.csv").read_bytes())
