import json
import math

import pytest

from lutzlab import cli


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


def test_manifest_written(tmp_path):
    code, out = run(tmp_path, "distance", "fold", "--a1", "1", "--a2", "3",
                    "--ball", "0.5", "--delta", "0.1")
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "distance fold"
    assert "folding.json" in manifest["outputs"]
    for name in manifest["outputs"]:
        assert (out / name).exists()
    assert "lutzlab" in manifest["versions"]
    assert "tolerances" in manifest


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


def test_input_error_exit_code(tmp_path):
    code, _ = run(tmp_path, "persist", "barcode", "--in", "/nope.json")
    assert code == 2
    code2 = cli.main(["distance", "bogus-subcommand"])
    assert code2 == 2


def test_gray_command(tmp_path, capsys):
    code, out = run(tmp_path, "distance", "gray", "--u-start", "0.04",
                    "--u-end", "0.06", "--u", "0.04")
    assert code == 0
    doc = json.loads((out / "gray.json").read_text())
    assert doc["value"] == pytest.approx(math.log(1.5), rel=1e-6)


def test_sandwich_determinism(tmp_path):
    args = ["distance", "sandwich", "--a-grid", "0", "0.15", "2",
            "--b-grid", "-3.2", "-2.82", "2"]
    _, out1 = run(tmp_path / "r1", *args)
    _, out2 = run(tmp_path / "r2", *args)
    assert (out1 / "sandwich.csv").read_bytes() \
        == (out2 / "sandwich.csv").read_bytes()


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
    code, o = run(tmp_path / "mol", "profile", "mollify", "--in", spec)
    assert code == 0
    assert (o / "profile_mollified.csv").exists()


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
