import argparse
import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from framelab import cli
from framelab import ghlab as gh
from framelab.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(list(argv) + ["--out", str(out)]), out


def load(out, name):
    return json.loads((out / f"{name}.json").read_text())


def test_parse_check_builtin(tmp_path):
    code, out = run(tmp_path, "parse-check", "--metric",
                    "builtin:smoothed-cone:a=0.7,eps=0.1")
    assert code == 0
    payload = load(out, "parse-check")
    assert payload["result"]["ok"] is True
    assert payload["version"]
    assert payload["config"]["seed"] == 0


def test_parse_check_gmet_file(tmp_path):
    path = tmp_path / "m.gmet"
    path.write_text("dim 2; coords x y; g = [[1,0],[0,1]];", encoding="utf-8")
    code, out = run(tmp_path, "parse-check", "--metric", str(path))
    assert code == 0


def test_curvature_round_sphere_ricci_equals_metric(tmp_path):
    code, out = run(tmp_path, "curvature", "--metric", "builtin:round-sphere",
                    "--at", "1.0,0.5")
    assert code == 0
    payload = load(out, "curvature")["result"]
    import numpy as np
    ric = np.array(payload["ricci"])
    g = np.array(payload["metric"])
    assert np.abs(ric - g).max() <= 1e-9


def test_curvature_outside_domain_exit_code(tmp_path):
    code, _ = run(tmp_path, "curvature", "--metric", "builtin:round-sphere",
                  "--at", "9.0,0.5")
    assert code == 3


def test_bad_metric_exit_code(tmp_path):
    code, _ = run(tmp_path, "curvature", "--metric", "builtin:nope", "--at", "1,1")
    assert code == 2


def test_bad_gmet_exit_code(tmp_path):
    path = tmp_path / "bad.gmet"
    path.write_text("dim 2; coords x y; g = [[1,2],[3,4]];", encoding="utf-8")
    code, _ = run(tmp_path, "parse-check", "--metric", str(path))
    assert code == 2


def test_non_spd_gmet_exit_code(tmp_path, capsys):
    path = tmp_path / "neg.gmet"
    path.write_text("dim 2; coords x y; g = [[1,0],[0,-1]];", encoding="utf-8")
    code, _ = run(tmp_path, "parse-check", "--metric", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert "not positive definite at [" in err
    assert "np.float64" not in err


def test_huge_literal_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.gmet"
    path.write_text("dim 1; coords x;\ng = [[1e400]];", encoding="utf-8")
    code, _ = run(tmp_path, "parse-check", "--metric", str(path))
    assert code == 2
    assert "(line 2, column 7)" in capsys.readouterr().err


@pytest.mark.parametrize("uri, code", [
    ("builtin:flat-euclidean:dim=5", 0),
    ("builtin:flat-torus:dim=3", 0),
    ("builtin:flat-euclidean:dim=2.5", 2),
])
def test_builtin_integer_parameters(tmp_path, uri, code):
    got, out = run(tmp_path, "parse-check", "--metric", uri, "--grid", "3")
    assert got == code
    if code == 0:
        assert load(out, "parse-check")["result"]["dim"] == int(uri[-1])


@pytest.mark.parametrize("uri, message", [
    ("builtin:round-sphere:a=1", "builtin round-sphere takes no parameters: "),
    ("builtin:smoothed-cone:a=0.7,eps=0.1,foo=1", "builtin smoothed-cone takes a, eps, r_max: "),
    ("builtin:smoothed-cone:a=0.7,eps_s=0.1", "builtin smoothed-cone takes a, eps, r_max: "),
    ("builtin:rescaled:lam=2", "unknown builtin family 'rescaled'"),
    ("builtin:smoothed-cone:a=0.7,eps=inf", "parameter eps must be positive and finite, got inf"),
    ("builtin:eguchi-hanson:a=inf", "parameter a must be positive and finite, got inf"),
    ("builtin:smoothed-cone:a=0.7,eps=1e-300", "eps=1e-300 is out of range: "),
])
def test_bad_builtin_parameters_are_config_errors(tmp_path, capsys, uri, message):
    code, out = run(tmp_path, "parse-check", "--metric", uri)
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_transport_through_the_pole_is_a_domain_error(tmp_path, capsys):
    # a triangle loop crosses th = 0, where the sphere chart is singular
    code, _ = run(tmp_path, "holonomy", "--metric", "builtin:round-sphere",
                  "--at", "0.02,0.5", "--loops", "2")
    assert code == 3
    assert "domain error" in capsys.readouterr().err


def test_holonomy_loop_into_an_undefined_region_is_a_domain_error(tmp_path, capsys):
    # a triangle loop crosses x = 0, below which sqrt(x) is undefined: the
    # loop is transported before it is measured, so the transport's domain
    # error is what the command reports, not the length quadrature's
    path = tmp_path / "sqrt.gmet"
    path.write_text("dim 2; coords x y; g = [[2 + sqrt(x), 0], [0, 1 + log(y)^2]];",
                    encoding="utf-8")
    code, out = run(tmp_path, "holonomy", "--metric", str(path), "--at", "0.1,1.0",
                    "--loops", "2")
    assert code == 3
    assert "domain error: curve leaves the chart domain at s=0.59375" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["curvature", "lift"])
def test_an_undefined_at_point_is_a_domain_error(tmp_path, capsys, command):
    # sqrt(x) is undefined at x = -1, inside the unbounded chart
    path = tmp_path / "sqrt.gmet"
    path.write_text("dim 2; coords x y; g = [[2 + sqrt(x), 0], [0, 1 + log(y)^2]];",
                    encoding="utf-8")
    code, out = run(tmp_path, command, "--metric", str(path), "--at=-1,2")
    assert code == 3
    assert "domain error: expression undefined at [-1.0, 2.0]" in capsys.readouterr().err
    assert not out.exists()


def test_parse_check_of_a_metric_undefined_on_its_grid_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "sqrt.gmet"
    path.write_text("dim 2; coords x y; g = [[2 + sqrt(x), 0], [0, 1]];", encoding="utf-8")
    code, out = run(tmp_path, "parse-check", "--metric", str(path))
    assert code == 2
    assert "config error: expression undefined at [-1.8, -1.8]" in capsys.readouterr().err
    assert not out.exists()


def test_curvature_metric2_of_another_dimension_is_a_config_error(tmp_path, capsys):
    code, _ = run(tmp_path, "curvature", "--metric", "builtin:round-sphere",
                  "--metric2", "builtin:flat-euclidean:dim=3", "--at", "1.0,0.5")
    assert code == 2
    assert "base and connection metrics must share the chart" in capsys.readouterr().err


CONE_2D = ("builtin:smoothed-cone:a=0.7,eps=0.1", "0.8,1.0")
EH_4D = ("builtin:eguchi-hanson", "2.2,1.3,0.8,1.1")


@pytest.mark.parametrize("command", ["holonomy", "fiber-dist", "gh"])
@pytest.mark.parametrize("base, conn", [(CONE_2D, EH_4D), (EH_4D, CONE_2D)])
def test_metric2_of_another_dimension_is_a_config_error(tmp_path, capsys, command,
                                                        base, conn):
    at = [] if command == "gh" else ["--at", base[1]]
    code, out = run(tmp_path, command, "--metric", base[0], "--metric2", conn[0], *at)
    assert code == 2
    assert "config error: base and connection metrics must share the chart" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_point_outside_the_metric2_chart_is_named(tmp_path, capsys):
    # th = 4 is off the sphere's chart th in [0, pi], inside the flat one
    code, _ = run(tmp_path, "curvature", "--metric", "builtin:flat-euclidean:dim=2",
                  "--metric2", "builtin:round-sphere", "--at", "4.0,0.5")
    assert code == 3
    err = capsys.readouterr().err
    assert "point [4.0, 0.5] is outside the chart domain" in err
    assert "s=0" not in err


def test_oneill_check_sphere(tmp_path):
    code, out = run(tmp_path, "oneill-check", "--metric", "builtin:round-sphere",
                    "--pairs", "3")
    assert code == 0
    payload = load(out, "oneill-check")["result"]
    assert payload["worst_rel_err"] <= 1e-5


def test_oneill_check_one_dimensional_base(tmp_path):
    # n = 1: the fiber O(1) is zero-dimensional and every Ricci value is 0
    code, out = run(tmp_path, "oneill-check", "--metric", "builtin:flat-euclidean:dim=1",
                    "--pairs", "2")
    assert code == 0
    assert load(out, "oneill-check")["result"]["worst_rel_err"] == 0.0


def test_oneill_check_eguchi_hanson(tmp_path):
    # n = 4, total dimension 10: the direct check on the SO(4) fiber, g != g'
    code, out = run(tmp_path, "oneill-check", "--metric", "builtin:eguchi-hanson",
                    "--metric2", "builtin:eguchi-hanson:a=1.2", "--pairs", "2")
    assert code == 0
    payload = load(out, "oneill-check")["result"]
    assert len(payload["rows"]) == 2
    assert payload["worst_rel_err"] <= 1e-6


def test_curvature_at_smoothed_cone_seam(tmp_path):
    # r = 2*eps, where the cap meets the cone: the metric is C^2 there
    code, out = run(tmp_path, "curvature", "--metric",
                    "builtin:smoothed-cone:a=0.7,eps=0.3", "--at", "0.6,1.0")
    assert code == 0
    import numpy as np
    assert np.abs(np.array(load(out, "curvature")["result"]["ricci"])).max() <= 1e-12


def test_lift_command(tmp_path):
    code, out = run(tmp_path, "lift", "--metric", "builtin:round-sphere",
                    "--at", "1.1,0.3")
    assert code == 0
    payload = load(out, "lift")["result"]
    assert payload["total_dim"] == 3
    assert payload["adapted_frame_deviation"] <= 1e-9


def test_holonomy_command_writes_samples(tmp_path):
    code, out = run(tmp_path, "holonomy", "--metric",
                    "builtin:smoothed-cone:a=0.7,eps=0.1", "--at", "0.8,1.0",
                    "--loops", "2", "--word-length", "1")
    assert code == 0
    assert (out / "holonomy-samples.jsonl").exists()
    payload = load(out, "holonomy")["result"]
    assert payload["classification"]["class"]


def test_fiber_dist_command(tmp_path):
    code, out = run(tmp_path, "fiber-dist", "--metric",
                    "builtin:smoothed-cone:a=0.41421356,eps=0.05",
                    "--at", "0.15,0.0", "--loops", "20", "--samples", "8")
    assert code == 0
    payload = load(out, "fiber-dist")["result"]
    assert payload["reflection"] == "inf"
    assert (out / "fiber-dist.dat").exists()


def test_experiment_canonical_recovery(tmp_path):
    code, out = run(tmp_path, "experiment", "canonical-recovery", "--samples", "10")
    assert code == 0
    payload = load(out, "canonical-recovery")["result"]
    assert payload["max_rel_err"] <= 1e-9


def test_experiment_cone_collapse_smoke(tmp_path):
    code, out = run(tmp_path, "experiment", "cone-collapse",
                    "--a", "0.41421356", "--caps", "0.1,0.05", "--loops", "30")
    assert code == 0
    payload = load(out, "cone-collapse")["result"]
    assert payload["monotone"] is True
    assert (out / "cone-collapse.dat").exists()


@pytest.mark.parametrize("caps", ["2", "0.1,1.6"])
def test_cone_collapse_cap_whose_base_point_leaves_the_chart(tmp_path, capsys, caps):
    # the base point r = 2.5 eps must lie inside the smoothed cone's chart r < 4
    code, out = run(tmp_path, "experiment", "cone-collapse", "--caps", caps, "--loops", "2")
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: --caps: cap " in err and "outside the chart r < 4" in err
    assert not out.exists()


def test_cone_collapse_cap_just_inside_the_chart_runs(tmp_path):
    code, out = run(tmp_path, "experiment", "cone-collapse", "--caps", "1.5", "--loops", "2")
    assert code == 0
    assert [row["eps"] for row in load(out, "cone-collapse")["result"]["ladder"]] == [1.5]


@pytest.mark.parametrize("argv,flag,piece", [
    (["experiment", "cone-collapse", "--caps", "abc"], "--caps", "'abc'"),
    (["experiment", "eguchi-hanson", "--scales", "abc"], "--scales", "'abc'"),
    (["curvature", "--metric", "builtin:eguchi-hanson", "--at", "1,x,1,1"], "--at", "'x'"),
])
def test_a_number_list_that_is_not_numbers_names_its_option(tmp_path, capsys, argv, flag, piece):
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert f"config error: {flag} takes comma-separated numbers, got {piece}" in \
        capsys.readouterr().err
    assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"artifact holds {name}, which is not JSON")


@pytest.mark.parametrize("argv,key", [
    (["--caps", "0.1"], "fitted_slope"),
    (["--caps", "0.1,0.05", "--loops", "0"], "min_unit_length"),
])
def test_cone_collapse_artifact_is_strict_json(tmp_path, argv, key):
    """One cap leaves no slope to fit, and no loop power leaves no loop of
    positive length: both are null, never NaN or Infinity."""
    code, out = run(tmp_path, "experiment", "cone-collapse", "--a", "0.41421356", *argv)
    assert code == 0
    payload = json.loads((out / "cone-collapse.json").read_text(),
                         parse_constant=_reject_constant)["result"]
    values = [payload[key]] if key in payload else [r[key] for r in payload["ladder"]]
    assert values and all(v is None for v in values)


def test_determinism_byte_identical(tmp_path):
    out = tmp_path / "a"
    texts = []
    for _ in range(2):
        code = main(["oneill-check", "--metric", "builtin:round-sphere",
                     "--pairs", "2", "--seed", "7", "--out", str(out)])
        assert code == 0
        texts.append((out / "oneill-check.json").read_text())
    assert texts[0] == texts[1]


def test_seed_changes_output(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    main(["oneill-check", "--metric", "builtin:round-sphere", "--pairs", "2",
          "--seed", "1", "--out", str(out1)])
    main(["oneill-check", "--metric", "builtin:round-sphere", "--pairs", "2",
          "--seed", "2", "--out", str(out2)])
    r1 = json.loads((out1 / "oneill-check.json").read_text())["result"]
    r2 = json.loads((out2 / "oneill-check.json").read_text())["result"]
    assert r1["rows"][0]["point"] != r2["rows"][0]["point"]


def test_oneill_check_is_three_metric_matrix_calls(tmp_path, monkeypatch):
    """All pairs of one oneill-check call share one finite-difference pass:
    the values, gradient stencils and Hessian stencils of the lifted metric
    are three metric_matrix calls whatever --pairs is."""
    from framelab import bundle as bd
    calls = []
    original = bd.LiftedMetricChart.metric_matrix
    monkeypatch.setattr(bd.LiftedMetricChart, "metric_matrix",
                        lambda self, y: calls.append(len(y)) or original(self, y))
    code, out = run(tmp_path, "oneill-check", "--metric", "builtin:smoothed-cone:a=0.7,eps=0.15",
                    "--metric2", "builtin:smoothed-cone:a=0.7,eps=0.3", "--pairs", "5")
    assert code == 0
    assert calls == [5, 5 * 4 * 3, 5 * (1 + 4 * 3 * 3)]
    assert len(load(out, "oneill-check")["result"]["rows"]) == 5


def test_framelab_jobs_environment_is_not_read(tmp_path, monkeypatch):
    # --jobs is accepted and ignored, and nothing reads FRAMELAB_JOBS
    monkeypatch.setenv("FRAMELAB_JOBS", "two")
    code, out = run(tmp_path, "parse-check", "--metric", "builtin:round-sphere")
    assert code == 0
    assert load(out, "parse-check")["config"]["jobs"] == 1


def test_holonomy_resume_merges_samples(tmp_path):
    code, out = run(tmp_path, "holonomy", "--metric",
                    "builtin:smoothed-cone:a=0.7,eps=0.1", "--at", "0.8,1.0",
                    "--loops", "1", "--word-length", "1")
    assert code == 0
    saved = out / "holonomy-samples.jsonl"
    n_first = len(saved.read_text().strip().splitlines())
    code2 = main(["holonomy", "--metric", "builtin:smoothed-cone:a=0.7,eps=0.1",
                  "--at", "0.8,1.0", "--loops", "1", "--word-length", "1",
                  "--seed", "5", "--resume", str(saved), "--out", str(out)])
    assert code2 == 0
    n_second = len(saved.read_text().strip().splitlines())
    assert n_second >= n_first


def test_lift_grid_export(tmp_path):
    code, out = run(tmp_path, "lift", "--metric", "builtin:round-sphere",
                    "--at", "1.1,0.3", "--grid-out", "grid.dat")
    assert code == 0
    text = (out / "grid.dat").read_text()
    assert text.startswith("# lifted metric grid")
    assert len(text.strip().splitlines()) > 10


def test_bound_report_csv_format(tmp_path):
    code, out = run(tmp_path, "bound-report", "--metric", "builtin:round-sphere",
                    "--samples", "3", "--format", "csv")
    assert code == 0
    assert (out / "bound-report.csv").read_text().startswith("point,sup_ricci")


def test_gh_command(tmp_path):
    code, out = run(tmp_path, "gh", "--metric",
                    "builtin:smoothed-cone:a=0.7,eps=0.1",
                    "--metric2", "builtin:exact-cone:a=0.7",
                    "--region", "r:0.25:2.0,phi:0.3:5.9", "--samples", "20")
    assert code == 0
    payload = load(out, "gh")["result"]
    assert payload["gh_lower"] <= payload["gh_upper"] + 1e-12
    assert payload["gh_upper"] <= 1e-9


#: the diameters on one component, and the gap between the first two
EH_EXACT_DIAMETERS = {"diam_O4_mod_SU2": math.pi, "diam_O4_mod_pmI": math.sqrt(2.0) * math.pi,
                      "diam_O4_mod_O4": 0.0, "gap": (math.sqrt(2.0) - 1.0) * math.pi}


def test_experiment_eguchi_hanson_smoke(tmp_path):
    code, out = run(tmp_path, "experiment", "eguchi-hanson",
                    "--scales", "4,16,64", "--samples", "6", "--loops", "6")
    assert code == 0
    payload = load(out, "eguchi-hanson")["result"]
    assert payload["classification"] == "SU(2)-in-SO(4)"
    assert payload["chirality_residual"] <= 1e-5
    diams = payload["quotient_diameters"]
    assert diams["gap"] > 0
    assert diams["exact"] == EH_EXACT_DIAMETERS
    assert all(diams[k] <= v for k, v in EH_EXACT_DIAMETERS.items())
    assert payload["gh_table"][0]["gh_upper"] <= 0.05
    assert (out / "eguchi-hanson.dat").exists()


def test_experiment_eguchi_hanson_without_quotient_samples(tmp_path):
    # --loops counts the quotient samples: with none, the sampled diameters
    # and the gap are null and strict mode checks only the rest
    code, out = run(tmp_path, "experiment", "eguchi-hanson",
                    "--scales", "4,16,64", "--samples", "6", "--loops", "0")
    assert code == 0
    diams = load(out, "eguchi-hanson")["result"]["quotient_diameters"]
    assert diams["exact"] == EH_EXACT_DIAMETERS
    assert diams["diam_O4_mod_SU2"] is None and diams["diam_O4_mod_pmI"] is None
    assert diams["gap"] is None


def test_experiment_eguchi_hanson_strict_checks_the_exact_diameters(tmp_path, capsys, monkeypatch):
    diams = {"diam_O4_mod_SU2": math.pi + 1e-9, "diam_O4_mod_pmI": 3.0,
             "diam_O4_mod_O4": 0.0, "gap": 1.0, "exact": EH_EXACT_DIAMETERS}
    report = gh.EguchiHansonReport([], "SU(2)-in-SO(4)", 0.0, diams, [])
    monkeypatch.setattr(gh, "eguchi_hanson_experiment", lambda **kwargs: report)
    code, _ = run(tmp_path, "experiment", "eguchi-hanson")
    assert code == 4
    assert "sampled diam_O4_mod_SU2 exceed the exact diameters" in capsys.readouterr().err
    assert run(tmp_path, "experiment", "eguchi-hanson", "--no-strict")[0] == 0


def test_non_spd_point_is_a_domain_error(tmp_path):
    code, _ = run(tmp_path, "holonomy", "--metric", "builtin:eguchi-hanson",
                  "--at", "0.9,1.3,0.8,1.1")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["curvature", "--metric", "builtin:round-sphere", "--at", "1"],
    ["lift", "--metric", "builtin:round-sphere", "--at", "1.1,0.3,0.2"],
    ["holonomy", "--metric", "builtin:eguchi-hanson", "--at", "2.2,1.3"],
    ["fiber-dist", "--metric", "builtin:smoothed-cone:a=0.7,eps=0.05", "--at", "0.125"],
])
def test_basepoint_dimension_mismatch_is_a_config_error(tmp_path, argv):
    code, _ = run(tmp_path, *argv)
    assert code == 2


@pytest.mark.parametrize("at", ["inf,1.0", "nan,1.0"])
@pytest.mark.parametrize("command", ["curvature", "lift", "holonomy", "fiber-dist"])
def test_basepoint_that_is_not_finite_is_a_domain_error(tmp_path, capsys, command, at):
    code, out = run(tmp_path, command, "--metric", "builtin:smoothed-cone:a=0.7,eps=0.1",
                    "--at", at)
    err = capsys.readouterr().err
    assert code == 3
    assert f"domain error: point [{at.replace(',', ', ')}] is outside the chart domain" in err
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("content", [None, '{"length": 1.0}\n'])
def test_holonomy_bad_resume_file(tmp_path, capsys, content):
    # a missing file, then a line without a matrix
    saved = tmp_path / "samples.jsonl"
    if content is not None:
        saved.write_text(content, encoding="utf-8")
    code, _ = run(tmp_path, "holonomy", "--metric", "builtin:smoothed-cone:a=0.7,eps=0.1",
                  "--at", "0.8,1.0", "--resume", str(saved))
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_holonomy_resume_refuses_a_non_finite_sample(tmp_path, capsys):
    saved = tmp_path / "samples.jsonl"
    saved.write_text('{"matrix": [1.0, 0.0, 0.0, 1.0], "length": 0.0}\n'
                     '{"matrix": [NaN, 0.0, 0.0, 1.0], "length": 1.0}\n', encoding="utf-8")
    code, out = run(tmp_path, "holonomy", "--metric", "builtin:smoothed-cone:a=0.7,eps=0.1",
                    "--at", "0.8,1.0", "--loops", "1", "--resume", str(saved))
    assert code == 2
    assert "config error: bad holonomy sample on line 2" in capsys.readouterr().err
    assert not out.exists()


def test_holonomy_word_length_zero(tmp_path):
    code, _ = run(tmp_path, "holonomy", "--metric", "builtin:smoothed-cone:a=0.7,eps=0.1",
                  "--at", "0.8,1.0", "--loops", "0", "--word-length", "0")
    assert code == 2


CONE_AT = ["--metric", "builtin:smoothed-cone:a=0.7,eps=0.1", "--at", "0.8,1.0"]


@pytest.mark.parametrize("argv,flag", [
    (["oneill-check", "--metric", "builtin:round-sphere", "--pairs", "0"], "--pairs"),
    (["bound-report", "--metric", "builtin:round-sphere", "--samples", "0"], "--samples"),
    (["fiber-dist", *CONE_AT, "--samples", "0"], "--samples"),
    (["experiment", "canonical-recovery", "--samples", "0"], "--samples"),
    (["gh", "--metric", "builtin:round-sphere", "--samples", "0"], "--samples"),
    (["parse-check", "--metric", "builtin:round-sphere", "--grid", "0"], "--grid"),
])
def test_counts_below_one_are_config_errors(tmp_path, capsys, argv, flag):
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert f"config error: {flag} must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delta", ["0", "-0.25", "inf", "nan"])
def test_holonomy_delta_must_be_positive_and_finite(tmp_path, capsys, delta):
    code, out = run(tmp_path, "holonomy", *CONE_AT, "--loops", "0", "--delta", delta)
    assert code == 2
    assert f"config error: --delta must be positive and finite, got {float(delta):g}" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scales", ["0", "inf", "4,-16", "nan"])
def test_eguchi_hanson_scales_must_be_positive_and_finite(tmp_path, capsys, scales):
    code, out = run(tmp_path, "experiment", "eguchi-hanson", "--scales", scales,
                    "--samples", "4", "--loops", "0")
    assert code == 2
    bad = [float(v) for v in scales.split(",") if not 0 < float(v) < math.inf][0]
    assert f"config error: --scales must be positive and finite, got {bad:g}" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["eguchi-hanson", "--scales", ","], "--scales lists no scale"),
    (["cone-collapse", "--caps", ","], "--caps lists no cap"),
    (["cone-collapse", "--caps", "0.1,inf"],
     "--caps: parameter eps must be positive and finite, got inf"),
    (["cone-collapse", "--caps", "1e-300"], "--caps: eps=1e-300 is out of range: "),
])
def test_experiment_lists_are_config_errors(tmp_path, capsys, argv, message):
    code, out = run(tmp_path, "experiment", *argv, "--samples", "4", "--loops", "0")
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,samples", [("bound-report", "2"), ("gh", "3")])
def test_unbounded_chart_without_region_is_a_config_error(tmp_path, capsys, command, samples):
    code, out = run(tmp_path, command, "--metric", "builtin:flat-euclidean",
                    "--samples", samples)
    assert code == 2
    assert "config error: region must bound coordinate x1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bound-report", "gh"])
def test_a_bounded_chart_without_region_samples_its_domain(tmp_path, command):
    """No --region is the region of the whole domain, named in full."""
    metric = ["--metric", "builtin:round-sphere", "--samples", "3"]
    _, whole = run(tmp_path / "whole", command, *metric)
    _, named = run(tmp_path / "named", command, *metric, "--region",
                   f"th:0.0:{math.pi!r},ph:0.0:{2 * math.pi!r}")
    assert load(whole, command)["result"] == load(named, command)["result"]


BAD_BOUNDS = "--region takes name:lo:hi with finite numbers lo <= hi, got "


@pytest.mark.parametrize("command,metric,region,message", [
    ("bound-report", "builtin:eguchi-hanson", "r:nan:2", BAD_BOUNDS + "'r:nan:2'"),
    ("bound-report", "builtin:eguchi-hanson", "r:1.5:inf", BAD_BOUNDS + "'r:1.5:inf'"),
    ("gh", "builtin:round-sphere", "th:nan:1", BAD_BOUNDS + "'th:nan:1'"),
    ("gh", "builtin:round-sphere", "th:0.5:inf", BAD_BOUNDS + "'th:0.5:inf'"),
    ("bound-report", "builtin:eguchi-hanson", "r:abc:2", BAD_BOUNDS + "'r:abc:2'"),
    ("bound-report", "builtin:eguchi-hanson", "r:4:1.5", BAD_BOUNDS + "'r:4:1.5'"),
    ("bound-report", "builtin:eguchi-hanson", "r:1.5:2,r:1.6:1.7",
     "--region names r twice, again in 'r:1.6:1.7'"),
])
def test_a_bad_region_piece_is_a_config_error_naming_it(tmp_path, capsys, command, metric,
                                                        region, message):
    code, out = run(tmp_path, command, "--metric", metric, "--region", region,
                    "--samples", "2")
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


#: 10^400, an exact integer literal beyond float range
BIG = "1" + "0" * 400


@pytest.mark.parametrize("component", ["1 + 10^400*x", "1 + x/10^400", "1 + 2.5e0*10^400*x^2",
                                       pytest.param(BIG, id="literal"),
                                       pytest.param(f"1 + 2.5e0*{BIG}*x^2", id="literal-times-float")])
def test_a_constant_beyond_float_range_is_a_config_error(tmp_path, capsys, component):
    path = tmp_path / "big.gmet"
    path.write_text(f"dim 2; coords x y; g = [[{component}, 0], [0, 1]];", encoding="utf-8")
    for argv in (["parse-check"], ["curvature", "--at", "0.5,0.5"]):
        code, out = run(tmp_path, *argv, "--metric", str(path))
        assert code == 2
        assert "config error: constant of about 10^400 does not fit a float" in \
            capsys.readouterr().err
        assert not out.exists()


NESTED_COMMANDS = [["parse-check"], ["curvature", "--at", "1.0,1.0"],
                   ["holonomy", "--at", "1.0,1.0", "--loops", "1"],
                   ["oneill-check", "--pairs", "1"], ["bound-report"]]


@pytest.mark.parametrize("opening", ["(", "sin("])
def test_nesting_past_the_cap_is_a_located_config_error(tmp_path, capsys, opening):
    """100 nested levels run on every command; the 101st opening is a
    config error at its own column, not a RecursionError."""
    from framelab.expr import MAX_NESTING
    for depth in (MAX_NESTING, MAX_NESTING + 1):
        body = opening * depth + "x" + ")" * depth
        path = tmp_path / f"nested{depth}.gmet"
        path.write_text("dim 2; coords x y; domain x in [0.5, 1.5] y in [0.5, 1.5];\n"
                        f"g = [[1 + {body}, 0], [0, 1]];", encoding="utf-8")
        for argv in NESTED_COMMANDS:
            code, out = run(tmp_path, *argv, "--metric", str(path))
            err = capsys.readouterr().err
            if depth == MAX_NESTING:
                assert code == 0, err
                continue
            column = len("g = [[1 + ") + len(opening) * MAX_NESTING + len(opening)
            assert code == 2
            assert (f"config error: nesting deeper than {MAX_NESTING} levels "
                    f"(line 2, column {column})") in err


def test_a_constant_below_float_range_folds_to_zero(tmp_path):
    path = tmp_path / "tiny.gmet"
    path.write_text("dim 2; coords x y; g = [[1 + 10^-400*x, 0], [0, 1]];", encoding="utf-8")
    code, out = run(tmp_path, "curvature", "--metric", str(path), "--at", "0.5,0.5")
    assert code == 0
    assert load(out, "curvature")["result"]["metric"] == [[1.0, 0.0], [0.0, 1.0]]


def test_the_canonical_text_of_a_constant_below_float_range_round_trips(tmp_path):
    from framelab import metric as mt
    path = tmp_path / "tiny.gmet"
    path.write_text("dim 2; coords x y; g = [[1 + 10^-400*x, 0], [0, 1]];", encoding="utf-8")
    code, out = run(tmp_path, "parse-check", "--metric", str(path))
    assert code == 0
    canonical = load(out, "parse-check")["result"]["canonical"]
    assert f"1 + 1/{BIG}*x" in canonical
    assert mt.parse_metric(canonical).components == mt.metric_from_uri(str(path)).components


@pytest.mark.parametrize("component,size", [("1 + 10^-5000*x", "-5000"),
                                            ("1 + 10^-5000*x - 10^-5000*x", "-5000"),
                                            ("1 + 10^4300*x", "4300")])
def test_an_exact_constant_of_too_many_digits_is_a_config_error(tmp_path, capsys, component,
                                                                  size):
    path = tmp_path / "long.gmet"
    path.write_text(f"dim 2; coords x y; g = [[{component}, 0], [0, 1]];", encoding="utf-8")
    for argv in (["parse-check"], ["curvature", "--at", "0.5,0.5"]):
        code, out = run(tmp_path, *argv, "--metric", str(path))
        assert code == 2
        assert f"config error: constant of about 10^{size} has more than 4300 digits" in \
            capsys.readouterr().err
        assert not out.exists()


def test_an_exact_intermediate_beyond_float_range_folds(tmp_path):
    from framelab import metric as mt
    path = tmp_path / "ten.gmet"
    path.write_text("dim 2; coords x y; g = [[1 + 10^400/10^399*x, 0], [0, 1]];",
                    encoding="utf-8")
    assert mt.metric_from_uri(str(path)).components == \
        mt.parse_metric("dim 2; coords x y; g = [[1 + 10*x, 0], [0, 1]];").components
    code, out = run(tmp_path, "curvature", "--metric", str(path), "--at", "0.5,0.5")
    assert code == 0
    assert load(out, "curvature")["result"]["metric"] == [[6.0, 0.0], [0.0, 1.0]]


def test_a_power_of_too_many_digits_is_refused_before_it_is_computed(tmp_path):
    # 10^100000000 would take minutes to compute; its size is known at once
    import os
    import subprocess
    import sys

    import framelab

    path = tmp_path / "huge.gmet"
    path.write_text("dim 2; coords x y; g = [[1 + 10^100000000*0*x, 0], [0, 1]];",
                    encoding="utf-8")
    src = str(Path(framelab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from framelab.cli import main; sys.exit(main(sys.argv[1:]))",
         "parse-check", "--metric", str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 2
    assert "config error: constant of about 10^100000000 has more than 4300 digits" in proc.stderr


def test_format_dat_is_refused(tmp_path):
    code, out = run(tmp_path, "bound-report", "--metric", "builtin:round-sphere",
                    "--samples", "2", "--format", "dat")
    assert code == 2
    assert not out.exists()


def test_gh_with_one_sample_runs(tmp_path):
    code, out = run(tmp_path, "gh", "--metric", "builtin:round-sphere", "--samples", "1")
    assert code == 0
    assert load(out, "gh")["result"]["gh_upper"] == 0.0


@pytest.mark.parametrize("argv", [
    ["fiber-dist", *CONE_AT, "--loops", "-1"],
    ["holonomy", *CONE_AT, "--loops", "-2"],
    ["experiment", "cone-collapse", "--loops", "-1"],
])
def test_negative_loop_counts_are_config_errors(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert f"config error: --loops must be at least 0, got {argv[-1]}" in capsys.readouterr().err
    assert not out.exists()
    assert run(tmp_path, *argv[:-1], "0")[0] == 0


#: one run of every command that samples no space, at its smallest test size
SCIPY_FREE_RUNS = [
    ["parse-check", "--metric", "builtin:smoothed-cone:a=0.7,eps=0.1"],
    ["curvature", "--metric", "builtin:round-sphere", "--at", "1.0,0.5"],
    ["lift", "--metric", "builtin:round-sphere", "--at", "1.1,0.3"],
    ["oneill-check", "--metric", "builtin:round-sphere", "--pairs", "3"],
    ["holonomy", *CONE_AT, "--loops", "2", "--word-length", "1"],
    ["fiber-dist", "--metric", "builtin:smoothed-cone:a=0.41421356,eps=0.05",
     "--at", "0.15,0.0", "--loops", "20", "--samples", "8"],
    ["bound-report", "--metric", "builtin:round-sphere", "--samples", "3"],
    ["experiment", "cone-collapse", "--a", "0.41421356", "--caps", "0.1,0.05", "--loops", "0"],
    ["experiment", "eguchi-hanson", "--scales", "4,16,64", "--samples", "6", "--loops", "6"],
    ["experiment", "canonical-recovery", "--samples", "10"],
]

SCIPY_PROBE = """
import json, sys
from framelab.cli import main

runs, out = json.loads(sys.argv[1]), sys.argv[2]
for argv in runs:
    assert main(argv + ["--out", out]) == 0, argv
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert main(["gh", "--metric", "builtin:round-sphere", "--samples", "3", "--out", out]) == 0
print(json.dumps({"before": before, "after_gh": "scipy" in sys.modules}))
"""


def test_only_gh_loads_scipy(tmp_path):
    """Importing the CLI and running every command but gh, each experiment
    included, loads no scipy module; gh then does, so the probe sees an
    import."""
    import os
    import subprocess
    import sys

    import framelab

    src = str(Path(framelab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(SCIPY_FREE_RUNS), str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"before": [], "after_gh": True}


@pytest.mark.parametrize("argv", [
    ["holonomy", "--metric", "builtin:eguchi-hanson", "--at", "2.2,1.3,0.8,1.1"],
    ["curvature", "--metric", "builtin:round-sphere", "--at", "1.1,0.3"],
    ["experiment", "canonical-recovery"],
])
def test_format_is_refused_where_nothing_reads_it(tmp_path, argv):
    # only bound-report and gh write CSV tables
    code, out = run(tmp_path, *argv, "--format", "csv")
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("strict,code", [("--strict", 4), ("--no-strict", 0)])
def test_parse_check_round_trip_mismatch_obeys_strict(tmp_path, monkeypatch, strict, code):
    """A canonical text that parses to another metric fails the round trip:
    an invariant violation under --strict, a recorded `ok: false` under
    --no-strict."""
    from framelab import metric as mt
    monkeypatch.setattr(mt, "print_metric",
                        lambda m: "dim 2; coords x1 x2; g = [[1.5, 0], [0, 1]];")
    got, out = run(tmp_path, "parse-check", "--metric", "builtin:flat-euclidean", strict)
    assert got == code
    assert load(out, "parse-check")["result"]["ok"] is False


# ---------------------------------------------------------------------------
# every option of a command is read by it

CLI_FUNCTIONS = {node.name: node for node in ast.parse(Path(cli.__file__).read_text()).body
                 if isinstance(node, ast.FunctionDef)}

#: option dest -> why a command may leave it unread
UNREAD_EXEMPT = {
    "jobs": "accepted and ignored, read by no command: bench/ops.py passes --jobs 1 "
            "to every command it runs; ROADMAP item 7 removes the option together "
            "with that benchmark edit",
}


def _reads(name, param="args", seen=None):
    """The attributes read as `param.<attr>` in the cli function `name`,
    and in every cli function it passes `param` to, there under that
    function's own parameter name."""
    seen = set() if seen is None else seen
    if (name, param) in seen:
        return set()
    seen.add((name, param))
    out = set()
    for node in ast.walk(CLI_FUNCTIONS[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == param):
            out.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in CLI_FUNCTIONS):
            callee = [a.arg for a in CLI_FUNCTIONS[node.func.id].args.args]
            passed = [(callee[i], a) for i, a in enumerate(node.args)]
            passed += [(k.arg, k.value) for k in node.keywords]
            for to, value in passed:
                if isinstance(value, ast.Name) and value.id == param:
                    out |= _reads(node.func.id, to, seen)
    return out


def _unread():
    """(subcommand, dest) of each option that its command does not read."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    out = []
    for command, parser in sub.choices.items():
        read = _reads(parser.get_default("func").__name__)
        out += [(command, a.dest) for a in parser._actions
                if a.dest != "help" and a.dest not in read]
    return out


def test_every_cli_option_is_read_by_its_command():
    unread = [(c, d) for c, d in _unread() if d not in UNREAD_EXEMPT]
    assert not unread, f"options that their command never reads: {unread}"


def test_every_cli_exemption_is_still_needed():
    assert {d for _, d in _unread()} == set(UNREAD_EXEMPT)


def test_the_option_scan_follows_args_into_helpers():
    # --at through _basepoint(args, m), --out through _write_artifact
    assert {"at", "metric", "metric2", "out"} <= _reads("cmd_curvature")
    assert "seed" not in _reads("cmd_curvature")
    assert {"samples", "seed", "name"} <= _reads("cmd_experiment")


@pytest.mark.parametrize("argv", [
    ["curvature", "--metric", "builtin:round-sphere", "--at", "1.1,0.3", "--seed", "1"],
    ["curvature", "--metric", "builtin:round-sphere", "--at", "1.1,0.3", "--no-strict"],
    ["lift", "--metric", "builtin:round-sphere", "--at", "1.1,0.3", "--seed", "1"],
    ["holonomy", *CONE_AT, "--loops", "0", "--strict"],
    ["fiber-dist", *CONE_AT, "--loops", "0", "--seed", "1"],
    ["fiber-dist", *CONE_AT, "--loops", "0", "--no-strict"],
    ["parse-check", "--metric", "builtin:round-sphere", "--metric2", "builtin:round-sphere"],
])
def test_options_a_command_does_not_read_are_refused(tmp_path, argv):
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("seed", [0, 5, 101])
def test_bound_report_draws_the_points_of_the_loop(tmp_path, seed):
    """The sample points are one (samples, n) uniform draw over the region,
    bitwise the points of a per-point, per-coordinate loop of draws."""
    from framelab import metric as mt
    code, out = run(tmp_path, "bound-report", "--metric", "builtin:eguchi-hanson",
                    "--samples", "4", "--seed", str(seed), "--format", "csv")
    assert code == 0
    rows = (out / "bound-report.csv").read_text().splitlines()[1:]
    got = [[float(v) for v in row.split(",")[0].split()] for row in rows]
    rng = np.random.default_rng(seed)
    region = cli._region_for(mt.eguchi_hanson(), None)
    assert got == [[rng.uniform(lo, hi) for lo, hi in region] for _ in range(4)]


def test_oneill_check_rows_are_the_per_pair_contexts(tmp_path):
    """Each `oneill-check` row is bitwise what one context per pair gives,
    its point, v and xi drawn pair by pair (the points first, then v and xi
    of each pair in turn), as the command drew them before its one
    stacked context."""
    from framelab import bundle as bd
    from framelab import metric as mt
    from framelab import oneill as on
    from framelab import ortho as ot
    uri, uri2 = "builtin:eguchi-hanson", "builtin:eguchi-hanson:a=1.2"
    code, out = run(tmp_path, "oneill-check", "--metric", uri, "--metric2", uri2,
                    "--pairs", "3", "--seed", "5")
    assert code == 0
    rows = load(out, "oneill-check")["result"]["rows"]
    g, gp = mt.metric_from_uri(uri), mt.metric_from_uri(uri2)
    rng = np.random.default_rng(5)
    points = g.sample_interior(rng, 3, margin=0.2)
    for p, row in zip(points, rows, strict=True):
        v, xi = rng.normal(size=4), ot.unvec_skew(rng.normal(size=6), 4)
        ctx = on.ONeillContext(g, gp, bd.FramePoint.anchor(p, 4))
        rep = on.ricci_oneill(ctx, v, xi)
        assert row["point"] == p.tolist()
        assert row["formula"] == rep.ricci_formula and row["terms"] == rep.terms
        assert row["direct"] == on.ricci_direct(ctx, [v], [xi])[0]
