import json

import numpy as np
import pytest

from sigembed import cli
from sigembed.cli import REPORT_SCHEMA, RunConfig, _emit_table, main
from sigembed.config import NumericConfig

TWO_PI = 2.0 * np.pi

# (name, grid) of every check of the quick battery, in report order
QUICK_BATTERY = [
    ("isometry_psi_n2_analytic", "t in [-0.99, 10] x200, x in [-5, 5] x50, n=2"),
    ("isometry_psi_n2_finite_difference",
     "t in [-0.99, 10] x200, x in [-5, 5] x50, n=2"),
    ("isometry_psi_n3_analytic", "t in [-0.99, 10] x200, x in [-5, 5] x50, n=3"),
    ("isometry_psi_n3_finite_difference",
     "t in [-0.99, 10] x200, x in [-5, 5] x50, n=3"),
    ("signature_sweep_n2", "t in [-5, 5] x20000, n=2"),
    ("signature_sweep_n3", "t in [-5, 5] x20000, n=3"),
    ("lc_regularity_on_locus", "1002 null directions on t=0, n in [2, 3, 4]"),
    ("radical_transversality_on_locus",
     "200 points on t=0, n in [2, 3]; fd-vs-analytic gradient"),
    ("explicit_ode_residual", "t in [-10.0, 10.0] x200 minus (-1e-6, 1e-6)"),
    ("inversion_roundtrip", "t in [-100.0, 100.0] x201; monotonicity included"),
    ("asymptotic_small_t", "|t| in [0.001, 0.0001, 1e-05], both signs"),
    ("asymptotic_large_negative", "t = -100.0 against (2/3)|t|^(3/2) sgn t"),
    ("quotient_isometry", "200 seeded events in the half-space, N=3"),
    ("boost_identification",
     "200 seeded events; generator rapidity pi shifts phi_raw by +2 pi"),
    ("misner_roundtrip",
     "200 seeded quotient points, branches in [-3, -2, -1, 0, 1, 2, 3]; "
     "base sheet at tol, other sheets at conditioning bound"),
    ("tangency_floor", "t in [-0.99, 10] x500; regression floor 0.45"),
    ("orbit_intersection_counts", "12 on-image bases, s in [-20, 20] x2001"),
    ("composed_images_distinct", "100 x 100 composed images, shift 1"),
    ("pullback_functoriality_explicit",
     "25 seeded points, composition vs staged vs source (explicit)"),
    ("pullback_functoriality_psi_toy",
     "25 seeded points, composition vs staged vs source (psi_toy)"),
    ("bulk_lorentzian_brane_signature_change",
     "t in [-3, 3] x121, composed with shift 1"),
    ("region_membership_explicit", "t in [-3.0, 3.0] x61"),
]

# (name, grid) of every user-model check for a dimension-2 model file
USER_CHECKS_N2 = [
    ("slice_positive_definite", "200 seeded points, t in [-3, 3]"),
    ("user_signature_sweep", "t in [-3, 3] x2001, n=2"),
    ("user_lc_regularity", "200 null directions on t=0, n=2"),
    ("user_radical_transversality", "100 seeded points on t=0, n=2"),
]


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


@pytest.mark.parametrize("argv, flag", [
    (["embed", "--n", "1"], "--n"),
    (["misner", "--n", "1"], "--n"),
    (["embed", "--shift", "-1"], "--shift"),
    (["embed", "--shift", "nan"], "--shift"),
    (["embed", "--root-tol", "-1"], "--root-tol"),  # no such flag any more
    (["embed", "--t-range", "0:inf:3"], "--t-range"),
    (["embed", "--x-fixed", "nan"], "--x-fixed"),
    (["misner", "--orbit-event", "0,2,nan"], "--orbit-event"),
    (["misner", "--orbit-event", "0,2", "--kmax", "-1"], "--kmax"),
    (["verify", "--perturb-scale", "nan"], "--perturb-scale"),
])
def test_out_of_range_argument_is_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err.strip().splitlines()[-1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_table_matches_per_value_format(tmp_path, fmt):
    special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300,
               1.7976931348623157e308]
    k = np.arange(-3, 4)  # integer-valued column, stacked as float
    rows = np.column_stack([k, special, np.linspace(-1.0, 1.0, 7) / 3.0])
    columns = ["k", "v", "w"]
    out = tmp_path / f"table.{fmt}"
    run_cfg = RunConfig(command="embed", output_path=str(out), format=fmt)
    _emit_table(columns, rows, run_cfg)
    if fmt == "csv":
        want = ",".join(columns) + "\n" + "".join(
            ",".join("%.17g" % float(v) for v in row) + "\n" for row in rows)
    else:
        payload = {"schema": "2", "command": "embed", "config": run_cfg.as_dict(),
                   "columns": columns,
                   "rows": [[float(v) for v in row] for row in rows]}
        want = json.dumps(payload, indent=2) + "\n"
    data = out.read_bytes()
    assert data == want.encode("utf-8")
    assert b"\r" not in data and data.endswith(b"\n")


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
    assert payload["schema"] == "2"
    assert payload["config"]["tolerances"] == {"fd_step": NumericConfig().fd_step}
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


@pytest.mark.parametrize("command,embedding,default", [
    ("embed", "psi", "-0.9:10:601"),
    ("misner", "psi_toy", "-0.3:3:121"),
])
def test_psi_default_t_range_inside_region(tmp_path, command, embedding, default):
    # without --t-range the psi maps run on a grid inside t > -1 and the
    # half-space, the same bytes as that grid given explicitly
    a, b = tmp_path / "default.csv", tmp_path / "explicit.csv"
    assert run_cli([command, "--embedding", embedding, "--output", str(a)]) == 0
    assert run_cli([command, "--embedding", embedding, "--t-range", default,
                    "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lo, hi, count = default.split(":")
    np.testing.assert_array_equal(read_csv(a)[1][:, 0],
                                  np.linspace(float(lo), float(hi), int(count)))


def test_explicit_default_t_ranges_unchanged(tmp_path):
    for command, default in (("embed", "-3:3:601"), ("misner", "-3:3:121")):
        a, b = tmp_path / "default.csv", tmp_path / "explicit.csv"
        assert run_cli([command, "--output", str(a)]) == 0
        assert run_cli([command, "--t-range", default, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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
    assert report["schema"] == "2"
    assert report["config"]["tolerances"] == {"fd_step": NumericConfig().fd_step}
    assert all(c["pass"] for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert "isometry_psi_n2_analytic" in names
    assert "quotient_isometry" in names
    assert [(c["name"], c["grid"]) for c in report["checks"]] == QUICK_BATTERY


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
    assert [(c["name"], c["grid"]) for c in report["checks"]] == USER_CHECKS_N2


def test_verify_user_model_file_indefinite_slices(tmp_path, capsys):
    # 1 - 2 x1^2 < 0 for |x1| > 1/sqrt2: the slices fail there, while the
    # signature sweep (x1 = 0.5) and the locus checks still hold
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "dimension": 2,
        "spatial_block": [["1 - 2*x1^2"]],
    }))
    out = tmp_path / "report.json"
    assert run_cli([
        "verify", "--model-file", str(model_path), "--output", str(out),
    ]) == 1
    report = json.loads(out.read_text())
    assert [(c["name"], c["grid"]) for c in report["checks"]] == USER_CHECKS_N2
    assert [c["name"] for c in report["checks"] if not c["pass"]] == [
        "slice_positive_definite"]
    assert report["checks"][0]["max_residual"] == 119.0
    assert "slice_positive_definite" in capsys.readouterr().err


def test_psi_embed_rejects_boundary_range(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["embed", "--embedding", "psi", "--t-range", "-2:5:10"])
    assert exc.value.code == 2
    assert "t > -1" in capsys.readouterr().err


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def _fresh_parser_output(argv, capsys, monkeypatch):
    """Bytes that ``main(argv)`` writes with a parser built afresh."""
    fresh = cli.build_parser.__wrapped__()
    monkeypatch.setattr(cli, "build_parser", lambda: fresh)
    assert main(argv) == 0
    monkeypatch.undo()
    return capsys.readouterr().out


def test_reused_parser_keeps_defaults_after_non_default_call(tmp_path, capsys,
                                                              monkeypatch):
    for command in ("embed", "misner"):
        want = _fresh_parser_output([command], capsys, monkeypatch)
        assert run_cli([command, "--shift", "2", "--format", "json", "--n", "3",
                        "--output", str(tmp_path / f"{command}.json")]) == 0
        assert run_cli([command]) == 0
        assert capsys.readouterr().out == want


@pytest.mark.parametrize("bad", [["--format", "xml"], ["--n", "1"]])
def test_reused_parser_survives_usage_error(bad, capsys, monkeypatch):
    want = _fresh_parser_output(["embed"], capsys, monkeypatch)
    with pytest.raises(SystemExit) as exc:
        run_cli(["embed", "--shift", "2"] + bad)
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(["embed"]) == 0
    assert capsys.readouterr().out == want
