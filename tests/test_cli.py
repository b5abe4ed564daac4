import json

import numpy as np
import pytest

from sigembed.cli import REPORT_SCHEMA, main

TWO_PI = 2.0 * np.pi


def run_cli(args):
    return main(args)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def test_embed_explicit_curve(tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli([
        "embed", "--model", "toy", "--embedding", "explicit",
        "--t-range", "-3:3:601", "--shift", "0", "--format", "csv",
        "--output", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "x1", "theta", "xi", "y2"]
    assert rows.shape == (601, 5)
    mid = rows[300]
    assert mid[0] == 0.0
    assert mid[2] == 0.0 and mid[3] == 0.0  # curve through the origin


def test_embed_psi_tau_strictly_decreasing(tmp_path):
    out = tmp_path / "psi.csv"
    code = run_cli([
        "embed", "--embedding", "psi", "--t-range", "-0.5:5:100",
        "--output", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    tau = rows[:, header.index("tau")]
    assert (np.diff(tau) < 0).all()


def test_embed_usage_error_names_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["embed", "--t-range", "5:1:100"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--t-range" in err


def test_embed_byte_stable(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["embed", "--embedding", "explicit", "--t-range", "-2:2:101",
            "--shift", "1"]
    assert run_cli(args + ["--output", str(a)]) == 0
    assert run_cli(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_embed_json_format(tmp_path):
    out = tmp_path / "curve.json"
    assert run_cli([
        "embed", "--embedding", "explicit", "--t-range", "-1:1:21",
        "--format", "json", "--output", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "1"
    assert payload["columns"][0] == "t"
    assert len(payload["rows"]) == 21


@pytest.mark.parametrize("kmax", [3, 7])
def test_misner_orbit_copies(tmp_path, kmax):
    # at kmax = 7 the boosted y1 - tau rounds to 0; the rows must still
    # come out
    out = tmp_path / "orbit.csv"
    assert run_cli([
        "misner", "--orbit-event", "0,2", "--kmax", str(kmax), "--output", str(out),
    ]) == 0
    header, rows = read_csv(out)
    assert header == ["k", "tau", "y1", "T", "phi_raw"]
    assert rows.shape == (2 * kmax + 1, 5)
    np.testing.assert_allclose(rows[:, 3], 1.0, atol=1e-8)  # T preserved
    np.testing.assert_allclose(
        rows[:, 4], TWO_PI * rows[:, 0], atol=1e-8
    )  # phi_raw steps by one period per copy


def test_misner_compose_explicit_inside_region(tmp_path):
    out = tmp_path / "misner.csv"
    assert run_cli([
        "misner", "--embedding", "explicit", "--t-range", "-3:3:61",
        "--output", str(out),
    ]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "T", "phi", "k"]
    assert rows.shape == (61, 4)
    assert (rows[:, 1][rows[:, 0] < 0] > 0).all()  # CTC side for t < 0
    assert (rows[:, 1][rows[:, 0] > 0] < 0).all()


def test_misner_psi_region_failure_names_t(tmp_path, capsys):
    code = run_cli([
        "misner", "--embedding", "psi_toy", "--t-range", "-0.95:-0.8:10",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "t = -0.95" in err


def test_misner_orbit_event_outside_region(capsys):
    code = run_cli(["misner", "--orbit-event", "1,0"])
    assert code == 1
    assert "half-space" in capsys.readouterr().err


def test_verify_report_schema_and_exit(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["schema"] == "1"
    assert all(c["pass"] for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert "isometry_psi_n2_analytic" in names
    assert "quotient_isometry" in names


def test_verify_perturbed_fixture_fails(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--perturb-scale", "1.01", "--output", str(out)])
    assert code == 1
    assert "isometry" in capsys.readouterr().err
    report = json.loads(out.read_text())
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert any(name.startswith("isometry_psi") for name in failed)
    assert all(name.startswith("isometry_psi") for name in failed)


def test_verify_user_model_file(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "dimension": 2,
        "spatial_block": [["1 + t^2"]],
    }))
    out = tmp_path / "report.json"
    assert run_cli([
        "verify", "--model-file", str(model_path), "--output", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    names = [c["name"] for c in report["checks"]]
    assert "slice_positive_definite" in names
    assert all(c["pass"] for c in report["checks"])


def test_env_tolerance_override(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    monkeypatch.setenv("SIGEMBED_TOL", "1e-10")
    assert run_cli(["verify", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["tolerances"]["root_tol"] == 1e-10


def test_psi_embed_rejects_boundary_range(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["embed", "--embedding", "psi", "--t-range", "-2:5:10"])
    assert exc.value.code == 2
    assert "t > -1" in capsys.readouterr().err
