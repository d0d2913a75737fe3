import json
import tracemalloc
import warnings

import numpy as np
import pytest

from sublorentz import LorentzCone, PolyhedralCone, antinorm_eval, verify
from sublorentz.cli import _cloud_csv, emit_report, main, run_config
from sublorentz.config import build_cone, load_config, parse_config
from sublorentz.errors import ConfigError
from sublorentz.groups import MAX_DIM
from sublorentz.presets import PRESETS


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


FAST_SOLVER = {"restarts": 2, "max_iter": 40, "inner_iter": 30}


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_parse_preset_expansion():
    cfg = parse_config({"version": 1, "preset": "minkowski11"})
    assert cfg.model is not None and cfg.cone is not None
    assert cfg.segments == 50
    assert np.allclose(cfg.x1, [5.0, 3.0])


def test_preset_keys_can_be_overridden():
    cfg = parse_config({"version": 1, "preset": "minkowski11",
                        "endpoints": {"x0": [0.0, 0.0], "x1": [2.0, 0.0]},
                        "segments": 10})
    assert np.allclose(cfg.x1, [2.0, 0.0])
    assert cfg.segments == 10


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"version": 1, "preset": "minkowski11", "segmnts": 5})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="cone.generatorz"):
        parse_config({"version": 1,
                      "model": {"kind": "abelian", "dim": 2},
                      "cone": {"kind": "polyhedral", "generatorz": [[1, 0]]}})


def test_missing_version_rejected():
    with pytest.raises(ConfigError, match="version"):
        parse_config({"preset": "minkowski11"})


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config({"version": 1, "preset": "minkowski99"})


def test_bad_hyperbolic_endpoint_diagnostic():
    with pytest.raises(ConfigError, match="endpoints.x1"):
        parse_config({"version": 1, "preset": "hyperbolic",
                      "endpoints": {"x0": [0.0, 1.0], "x1": [0.0, -2.0]}})


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,\n  "preset": }')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(path))


def test_solver_section_validation():
    with pytest.raises(ConfigError, match="solver"):
        parse_config({"version": 1, "preset": "minkowski11",
                      "solver": {"tol": 1e-6, "bogus": 3}})


@pytest.mark.parametrize("key, value", [
    ("seed", -1), ("seed", 1.5), ("max_iter", True), ("max_iter", 0),
    ("restarts", -3), ("inner_iter", 2.9), ("tol", 0.0), ("tol", -1e-6),
    ("tol", float("inf")), ("tol", True), ("tol", "1e-6")])
def test_solver_values_validated(key, value):
    with pytest.raises(ConfigError, match=rf"^solver\.{key}: "):
        parse_config({"version": 1, "preset": "minkowski11", "solver": {key: value}})


def test_bad_solver_seed_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, {"version": 1, "preset": "minkowski11",
                                   "solver": {"seed": -1}})
    assert main(["solve", "--config", path]) == 2
    assert "solver.seed" in capsys.readouterr().err


CAPS = [("segments", 10_000), ("samples", 1_000_000), ("solver.restarts", 256),
        ("solver.max_iter", 100_000), ("solver.inner_iter", 10_000)]


def _with_value(field, value):
    payload = {"version": 1, "preset": "minkowski11"}
    if field.startswith("solver."):
        payload["solver"] = {field.split(".", 1)[1]: value}
    else:
        payload[field] = value
    return payload


@pytest.mark.parametrize("field, cap", CAPS)
def test_value_above_cap_exits_two(tmp_path, capsys, field, cap):
    path = write_config(tmp_path, _with_value(field, cap + 1))
    assert main(["solve", "--config", path]) == 2
    assert f"config error: {field}: must be at most {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("field, cap", CAPS)
def test_value_at_cap_accepted(tmp_path, field, cap):
    cfg = load_config(write_config(tmp_path, _with_value(field, cap)))
    name = field.split(".")[-1]
    holder = cfg.solver_options if field.startswith("solver.") else cfg
    assert getattr(holder, name) == cap


MINKOWSKI_AREA = {"kind": "carnot", "builtin": "minkowski_area"}
HYPERBOLIC_AB = {"preset": "hyperbolic", "timeform": {"kind": "hyperbolic_ab"}}


@pytest.mark.parametrize("patch, error", [
    ({"model": {"kind": "abelian", "dim": "abc"}}, "model.dim: must be an integer >= 1"),
    ({"model": {"kind": "abelian", "dim": 0}}, "model.dim: must be an integer >= 1"),
    ({"model": {"kind": "abelian", "dim": 2.7}}, "model.dim: must be an integer >= 1"),
    ({"model": {"kind": "abelian", "dim": MAX_DIM + 1}},
     f"model.dim: must be at most {MAX_DIM}"),
    ({"model": {**MINKOWSKI_AREA, "r": 0}}, "model.r: must be an integer >= 1"),
    # minkowski_area(r) has dimension 2 r + 1
    ({"model": {**MINKOWSKI_AREA, "r": (MAX_DIM - 1) // 2 + 1}},
     f"model.r: must be at most {(MAX_DIM - 1) // 2}"),
    ({"model": {"kind": "carnot", "structure_file": "big.txt"}},
     f"model.structure_file: cannot load structure constants: dimension "
     f"{MAX_DIM + 1} exceeds the cap MAX_DIM = {MAX_DIM}"),
    ({"model": {"kind": "carnot", "structure_file": ["heis.txt"]}},
     "model.structure_file: must be a string"),
    # an integer would be opened as a file descriptor
    ({"model": {"kind": "carnot", "structure_file": 0}},
     "model.structure_file: must be a string"),
    ({"samples": 0}, "samples: must be an integer >= 1"),
    ({**HYPERBOLIC_AB, "timeform": {**HYPERBOLIC_AB["timeform"], "a": [1.0]}},
     "timeform.a: must be a finite number"),
    ({**HYPERBOLIC_AB, "timeform": {**HYPERBOLIC_AB["timeform"], "b": float("nan")}},
     "timeform.b: must be a finite number"),
    ({**HYPERBOLIC_AB, "timeform": {**HYPERBOLIC_AB["timeform"], "a": 10 ** 400}},
     "timeform.a: must be a finite number"),
    ({"output": {"dir": ["out"]}}, "output.dir: must be a string"),
], ids=["dim-text", "dim-0", "dim-float", "dim-cap", "r-0", "r-cap", "structure-cap",
        "structure-list", "structure-int", "samples-0", "a-list", "b-nan", "a-huge",
        "dir-list"])
def test_config_values_exit_two(tmp_path, monkeypatch, capsys, patch, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.txt").write_text(f"layers: {MAX_DIM} 1\n")
    path = write_config(tmp_path, {"version": 1, "preset": "minkowski11", **patch})
    tracemalloc.start()
    try:
        assert main(["check-structure", "--config", path]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"config error: {error}" in capsys.readouterr().err
    # refused before any (MAX_DIM + 1)^3 structure table is built
    assert peak < 8 * (MAX_DIM + 1) ** 3


IMAGE_BASES = {
    "polyhedral": {"kind": "polyhedral", "generators": [[1.0, 0.2], [1.0, 1.0]]},
    "lorentz": PRESETS["minkowski11"]["cone"],
}


@pytest.mark.parametrize("base", sorted(IMAGE_BASES))
def test_nested_linear_image_is_the_image_under_the_product_map(base, rng):
    M1, M2 = np.array([[3.0, 0.4], [0.5, 1.0]]), np.array([[1.0, -0.3], [0.2, 2.0]])
    nested = build_cone({"kind": "linear_image", "map": M2.tolist(), "base": {
        "kind": "linear_image", "map": M1.tolist(), "base": IMAGE_BASES[base]}})
    direct = build_cone({"kind": "linear_image", "map": (M2 @ M1).tolist(),
                         "base": IMAGE_BASES[base]})
    kind = PolyhedralCone if base == "polyhedral" else LorentzCone
    assert type(nested) is kind and type(direct) is kind
    if base == "polyhedral":
        np.testing.assert_allclose(nested.generators, direct.generators, rtol=1e-14)
    else:
        np.testing.assert_allclose(nested.form, direct.form, rtol=1e-14, atol=1e-15)
    V = rng.normal(size=(200, 2)) * 3.0
    np.testing.assert_allclose(nested.project_batch(V), direct.project_batch(V),
                               rtol=1e-12, atol=1e-12)
    assert np.array_equal(nested.contains(V), direct.contains(V))


@pytest.mark.parametrize("base", sorted(IMAGE_BASES))
@pytest.mark.parametrize("map_matrix, error", [
    ([[1.0, 2.0], [2.0, 4.0]], "map must be invertible"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "map must be square and match the base cone dim")],
    ids=["singular", "non-square"])
def test_linear_image_bad_map_exits_two_under_cone(tmp_path, capsys, base,
                                                   map_matrix, error):
    path = write_config(tmp_path, {"version": 1, "preset": "minkowski11", "cone": {
        "kind": "linear_image", "base": IMAGE_BASES[base], "map": map_matrix}})
    assert main(["check-structure", "--config", path]) == 2
    assert f"config error: cone: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("form, error", [
    ([[]], "form must be a square matrix"),
    ([[1.0]], "antinorm dim 1 does not match the cone dim 2")],
    ids=["empty", "one-by-one"])
def test_check_structure_antinorm_dim_exits_two_under_antinorm(tmp_path, capsys, form,
                                                               error):
    # a 1-d antinorm on the 2-d cone of minkowski11, as a solve refuses it;
    # the empty (1, 0) form is not square, so it never gets a dim
    path = write_config(tmp_path, {"version": 1, "preset": "minkowski11",
                                   "antinorm": {"kind": "lorentz_sqrt", "form": form}})
    assert main(["check-structure", "--config", path]) == 2
    assert f"config error: antinorm: {error}" in capsys.readouterr().err
    assert main(["solve", "--config", path]) == 2


def test_check_structure_non_square_form_exits_two_under_antinorm(tmp_path, capsys):
    # a (2, 1) form once broadcast to diag(1, -1) and passed
    path = write_config(tmp_path, {"version": 1, "preset": "minkowski11", "antinorm": {
        "kind": "lorentz_sqrt", "form": [[1.0], [-1.0]]}})
    assert main(["check-structure", "--config", path]) == 2
    assert ("config error: antinorm: form must be a square matrix"
            in capsys.readouterr().err)


def test_check_structure_on_huge_generators(tmp_path, capsys):
    # generators of 1e300 keep their directions: the cone is pointed
    path = write_config(tmp_path, {"version": 1, "cone": {
        "kind": "polyhedral", "generators": [[1e300, 0.0], [0.0, -1e300]]},
        "antinorm": {"kind": "zero"}})
    assert main(["check-structure", "--config", path]) == 0
    assert "cone pointed: True" in capsys.readouterr().out


def test_check_structure_on_huge_generators_warns_of_nothing(tmp_path, capsys):
    # the axiom check's tolerances scale with row lengths that stay finite
    path = write_config(tmp_path, {"version": 1, "cone": {
        "kind": "polyhedral", "generators": [[1e300, 0.0], [0.0, -1e300]]},
        "antinorm": {"kind": "zero"}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-structure", "--config", path]) == 0
    assert "antinorm axioms hold" in capsys.readouterr().out


def test_carnot_model_from_structure_file(tmp_path):
    sc = tmp_path / "heis.txt"
    sc.write_text("layers: 2 1\n0 1 2 1.0\n")
    cfg = parse_config({"version": 1,
                        "model": {"kind": "carnot", "structure_file": str(sc)}})
    assert cfg.model.point_dim == 3


def test_all_presets_parse():
    for name in PRESETS:
        cfg = parse_config({"version": 1, "preset": name})
        assert cfg.model is not None
        assert cfg.timeform is not None


# ---------------------------------------------------------------------------
# subcommands via run_config
# ---------------------------------------------------------------------------


def test_solve_minkowski_preset(tmp_path):
    path = write_config(tmp_path, {"version": 1, "preset": "minkowski11",
                                   "solver": FAST_SOLVER})
    code, report = run_config(path, "solve")
    assert code == 0
    assert report.payload["solver_status"] == "solved"
    assert report.payload["objective"] == pytest.approx(4.0, rel=1e-3)
    assert "trajectory.csv" in report.artifacts


def test_solve_emits_files(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {"version": 1, "preset": "minkowski11",
                                   "solver": FAST_SOLVER})
    code, report = run_config(path, "solve", out_dir=str(out))
    assert code == 0
    traj = (out / "trajectory.csv").read_text().strip().split("\n")
    assert len(traj) == 1 + 50 + 1  # header + N + 1 rows
    record = json.loads((out / "report.json").read_text())
    assert record["subcommand"] == "solve"
    assert (out / "summary.txt").exists()
    assert (out / "history.csv").exists()


def test_solve_spacelike_exit_one(tmp_path):
    path = write_config(tmp_path, {
        "version": 1, "preset": "minkowski11",
        "endpoints": {"x0": [0.0, 0.0], "x1": [5.0, 7.0]}})
    code, report = run_config(path, "solve")
    assert code == 1
    assert report.payload["solver_status"] == "no_admissible_path"


def test_solve_refuses_an_area_beyond_the_staircases(tmp_path):
    # x^2 - y^2 = 1 < 4 |z|: no admissible path reaches it, and none is tried
    path = write_config(tmp_path, {
        "version": 1, "preset": "heisenberg-sl",
        "endpoints": {"x0": [0.0, 0.0, 0.0], "x1": [1.0, 0.0, 0.3]}})
    code, report = run_config(path, "solve")
    assert code == 1
    assert report.payload["solver_status"] == "no_admissible_path"
    assert report.payload["endpoint_evaluations"] == 0


def test_check_timeform_closed_and_not(tmp_path):
    closed = write_config(tmp_path, {"version": 1, "preset": "hyperbolic"},
                          "closed.json")
    code, rep = run_config(closed, "check-timeform")
    assert code == 0 and rep.payload["closed"]
    broken = write_config(tmp_path, {
        "version": 1, "preset": "hyperbolic",
        "timeform": {"kind": "hyperbolic_ab", "a": 1.0, "b": 1.0}},
        "open.json")
    code, rep = run_config(broken, "check-timeform")
    assert code == 1 and not rep.payload["closed"]
    # d tau(e_x, e_y) = -tau0([e_x, e_y]) = a at the identity
    assert rep.payload["dtau_norm"] == 1.0


def test_check_timeform_tiny_bracket_component_is_not_closed(tmp_path):
    # |dtau| = 1e-12 exactly: tau0([e_0, e_1]) = 1e-12 is not zero
    path = write_config(tmp_path, {
        "version": 1, "preset": "heisenberg-sl",
        "timeform": {"kind": "left_invariant", "tau0": [1.0, 0.0, 1e-12]}})
    code, rep = run_config(path, "check-timeform")
    assert code == 1
    assert not rep.payload["closed"] and not rep.payload["exact"]
    assert rep.payload["dtau_norm"] == 1e-12


def test_check_structure_on_a_polyhedral_linear_image(tmp_path):
    gens, M = np.array([[1.0, 0.2], [1.0, 1.0]]), np.array([[3.0, 0.4], [0.5, 1.0]])
    path = write_config(tmp_path, {
        "version": 1,
        "cone": {"kind": "linear_image", "map": M.tolist(),
                 "base": {"kind": "polyhedral", "generators": gens.tolist()}},
        "antinorm": {"kind": "min_of_linear", "family": [[1.0, 0.0]]}})
    code, rep = run_config(path, "check-structure")
    assert code == 0 and rep.payload["pointed"]
    # the least-distance margin: cos of half the image sector's opening angle
    unit = gens @ M.T / np.linalg.norm(gens @ M.T, axis=1, keepdims=True)
    margin = np.cos(0.5 * np.arccos(unit[0] @ unit[1]))
    assert rep.payload["covector_margin"] == pytest.approx(margin, rel=1e-12)


def test_check_structure_pass_and_fail(tmp_path):
    good = write_config(tmp_path, {"version": 1, "preset": "heisenberg-sl"},
                        "good.json")
    code, rep = run_config(good, "check-structure")
    assert code == 0 and rep.payload["pointed"]
    assert rep.payload["antinorm_axioms_passed"]
    bad = write_config(tmp_path, {
        "version": 1,
        "model": {"kind": "abelian", "dim": 2},
        "cone": {"kind": "polyhedral",
                 "generators": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]},
        "antinorm": {"kind": "zero"}}, "bad.json")
    code, rep = run_config(bad, "check-structure")
    assert code == 1 and not rep.payload["pointed"]


def test_reach_cloud(tmp_path):
    out = tmp_path / "reach"
    path = write_config(tmp_path, {"version": 1, "preset": "minkowski11",
                                   "samples": 64})
    code, rep = run_config(path, "reach", out_dir=str(out))
    assert code == 0
    rows = (out / "cloud.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 64
    assert rows[0] == "x0,x1"


def test_determinism_byte_for_byte(tmp_path):
    cfgd = {"version": 1, "preset": "minkowski11", "samples": 32,
            "solver": FAST_SOLVER}
    path = write_config(tmp_path, cfgd)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_config(path, "solve", seed=7, out_dir=str(out))
        run_config(path, "reach", seed=7, out_dir=str(out / "r"))
        outs.append((
            (out / "report.json").read_bytes(),
            (out / "trajectory.csv").read_bytes(),
            (out / "r" / "cloud.csv").read_bytes(),
        ))
    assert outs[0] == outs[1]


def test_solve_reports_evaluation_counts(tmp_path):
    path = write_config(tmp_path, {"version": 1, "preset": "hyperbolic",
                                   "solver": FAST_SOLVER})
    counts = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_config(path, "solve", out_dir=str(out))
        record = json.loads((out / "report.json").read_text())
        counts.append((record["endpoint_evaluations"],
                       record["jacobian_evaluations"]))
    assert counts[0] == counts[1]
    endpoint, jacobian = counts[0]
    # line-search trials that are rejected evaluate the residual only
    assert 0 < jacobian < endpoint


def test_seed_changes_reach_output(tmp_path):
    path = write_config(tmp_path, {"version": 1, "preset": "minkowski11",
                                   "samples": 16})
    _, rep_a = run_config(path, "reach", seed=1)
    _, rep_b = run_config(path, "reach", seed=2)
    assert rep_a.artifacts["cloud.csv"] != rep_b.artifacts["cloud.csv"]


# ---------------------------------------------------------------------------
# main() entry point
# ---------------------------------------------------------------------------


def test_main_solve_exit_zero(tmp_path, capsys):
    path = write_config(tmp_path, {"version": 1, "preset": "minkowski11",
                                   "solver": FAST_SOLVER})
    assert main(["solve", "--config", path]) == 0
    assert "objective" in capsys.readouterr().out


def test_main_config_error_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, {"version": 1, "typo": True})
    assert main(["solve", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_antinorm_dim_mismatch_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, {
        "version": 1, "preset": "minkowski11",
        "antinorm": {"kind": "lorentz_sqrt",
                     "form": np.diag([1.0, -1.0, -1.0]).tolist()}})
    assert main(["solve", "--config", path]) == 2
    assert "config error: antinorm: antinorm dim 3" in capsys.readouterr().err


def test_main_negative_antinorm_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, {
        "version": 1, "preset": "minkowski11",
        "antinorm": {"kind": "min_of_linear", "family": [[0.0, 1.0]]}})
    assert main(["solve", "--config", path]) == 2
    assert "config error: antinorm: antinorm is negative" in capsys.readouterr().err


def test_main_cone_dim_mismatch_reported_under_cone(tmp_path, capsys):
    path = write_config(tmp_path, {
        "version": 1, "preset": "heisenberg-sl",
        "cone": {"kind": "lorentz", "form": np.diag([1.0, -1.0, -1.0]).tolist(),
                 "nappe_selector": [1.0, 0.0, 0.0]}})
    assert main(["solve", "--config", path]) == 2
    assert "config error: cone: cone dim 3" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["heisenberg-sl", "minkowski11", "hyperbolic"])
@pytest.mark.parametrize("subcommand", ["check-timeform", "reach"])
def test_cone_outside_the_control_space_exits_two_under_cone(tmp_path, capsys,
                                                              preset, subcommand):
    # a 3-d cone on a 2-d control space: Heisenberg would read it as a cone
    # of full tangent vectors, the 2-d models would fail without a path
    path = write_config(tmp_path, {
        "version": 1, "preset": preset, "samples": 8,
        "cone": {"kind": "lorentz", "form": np.diag([1.0, -1.0, -1.0]).tolist(),
                 "nappe_selector": [1.0, 0.0, 0.0]}})
    assert main([subcommand, "--config", path]) == 2
    assert ("config error: cone: cone dim 3 does not match the control space dim 2"
            in capsys.readouterr().err)


MINK3 = np.diag([1.0, -1.0, -1.0]).tolist()
SQUARE = {"kind": "polyhedral", "generators": [[1.0, 1.0], [1.0, -1.0]]}


@pytest.mark.parametrize("preset", [{"kind": "nope"}, [1.0], 3])
def test_preset_of_another_type_exits_two_under_preset(tmp_path, capsys, preset):
    # a dict or a list raised TypeError (unhashable) in the preset lookup
    path = write_config(tmp_path, {"version": 1, "preset": preset})
    assert main(["solve", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error: preset: unknown preset")


@pytest.mark.parametrize("subcommand, config, error", [
    ("check-structure", {"cone": SQUARE}, "antinorm: check-structure needs antinorm"),
    ("reach", {"model": {"kind": "abelian", "dim": 2}, "cone": SQUARE},
     "endpoints: reach needs endpoints"),
    ("check-timeform", {}, "model: check-timeform needs model, timeform"),
    ("solve", {"cone": SQUARE}, "model: solve needs model, antinorm, endpoints"),
])
def test_missing_section_is_named(tmp_path, capsys, subcommand, config, error):
    # each used to be reported under another section: cone, model, timeform
    path = write_config(tmp_path, {"version": 1, **config})
    assert main([subcommand, "--config", path]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"


@pytest.mark.parametrize("subcommand", ["solve", "check-structure", "check-timeform",
                                        "reach"])
@pytest.mark.parametrize("preset, override, error", [
    ("heisenberg-sl", {"cone": {"kind": "lorentz", "form": MINK3,
                                "nappe_selector": [1.0, 0.0, 0.0]},
                       "antinorm": {"kind": "lorentz_sqrt", "form": MINK3}},
     "cone: cone dim 3 does not match the control space dim 2"),
    ("minkowski11", {"antinorm": {"kind": "lorentz_sqrt", "form": MINK3}},
     "antinorm: antinorm dim 3 does not match the cone dim 2"),
])
def test_sections_that_disagree_exit_two_on_every_subcommand(
        tmp_path, capsys, subcommand, preset, override, error):
    # check-structure took the first, check-timeform and reach the second
    path = write_config(tmp_path, {"version": 1, "preset": preset, "samples": 8,
                                   **override})
    assert main([subcommand, "--config", path]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"


def test_require_names_the_first_missing_section():
    cfg = parse_config({"version": 1, "preset": "minkowski11"})
    cfg.require("solve", "model", "cone", "antinorm", "endpoints")
    cfg.antinorm = cfg.x0 = None
    with pytest.raises(ConfigError) as info:
        cfg.require("solve", "model", "antinorm", "endpoints")
    assert info.value.field == "antinorm"
    assert "solve needs antinorm, endpoints" in str(info.value)


IMAGE_CONE = {"kind": "linear_image", "map": [[3.0, 0.4], [0.5, 1.0]],
              "base": {"kind": "polyhedral", "generators": [[1.0, -1.0], [1.0, 1.0]]}}
TINY_SOLVER = {"restarts": 1, "max_iter": 2, "inner_iter": 2}


@pytest.mark.parametrize("config", [
    {"preset": "minkowski11", "endpoints": {"x0": [1e300, 0.0], "x1": [5.0, 3.0]}},
    {"preset": "hyperbolic", "endpoints": {"x0": [1e308, 1.0], "x1": [0.3, 2.0]}},
    {"model": {"kind": "abelian", "dim": 2}, "cone": IMAGE_CONE,
     "antinorm": {"kind": "min_of_linear", "family": [[1.0, 0.0]]},
     "endpoints": {"x0": [1e300, 0.0], "x1": [5.0, 3.0]}},
], ids=["minkowski11", "hyperbolic", "linear_image"])
def test_far_start_is_refused_by_its_certificate(tmp_path, capsys, config):
    # the membership tolerance scaled by an overflowing norm let the forced
    # average of x0^-1 x1 pass, and each solve ended in a traceback
    path = write_config(tmp_path, {"version": 1, "solver": TINY_SOLVER, **config})
    code, rep = run_config(path, "solve")
    assert code == 1 and rep.payload["solver_status"] == "no_admissible_path"


@pytest.mark.parametrize("preset, x0, x1", [
    ("minkowski11", [1e308, 0.0], [-1e308, 0.0]),
    ("heisenberg-sl", [1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]),
    ("hyperbolic", [1e308, 1.0], [-1e308, 1.0]),
])
def test_endpoints_beyond_the_float_range_exit_two(tmp_path, capsys, preset, x0, x1):
    # x0^-1 x1 overflows: a non-finite point raised a traceback
    path = write_config(tmp_path, {"version": 1, "preset": preset,
                                   "endpoints": {"x0": x0, "x1": x1}})
    assert main(["solve", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error: endpoints: x0^-1 x1 = [-inf")


def _strict_report(out_dir):
    """report.json read by a parser that refuses NaN and +-Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


@pytest.mark.parametrize("override, objective", [
    ({"endpoints": {"x0": [0.0, 0.0, 0.0], "x1": [1.0, 1.0, 0.1]}}, None),
    ({"antinorm": {"kind": "min_of_linear", "family": [[1e308, 5e307]]}}, None),
    ({"antinorm": {"kind": "lorentz_sqrt", "form": [[1e308, 0.0], [0.0, -1e308]]}},
     3e154),
], ids=["refused", "huge-family", "huge-form"])
def test_solve_report_is_strict_json(tmp_path, override, objective):
    # -inf, inf and NaN went out as the bare tokens -Infinity, Infinity, NaN
    path = write_config(tmp_path, {"version": 1, "preset": "heisenberg-sl",
                                   "solver": TINY_SOLVER, **override})
    with np.errstate(over="ignore"):
        run_config(path, "solve", out_dir=str(tmp_path / "out"))
    report = _strict_report(tmp_path / "out")
    if objective is None:
        assert report["objective"] is None
    else:
        assert report["objective"] == pytest.approx(objective, rel=1e-15)
        assert report["status"] == "ok"


def test_solve_with_overflowing_starts_exits_one(tmp_path, capsys):
    # the random starts toward (1e308, 0, 0) overflow: a traceback, no report
    path = write_config(tmp_path, {
        "version": 1, "preset": "heisenberg-sl",
        "cone": {"kind": "polyhedral", "generators": [[1.0, 1.0], [1.0, -1.0]]},
        "antinorm": {"kind": "min_of_linear", "family": [[1.0, 0.5], [1.0, -0.5]]},
        "endpoints": {"x0": [0.0, 0.0, 0.0], "x1": [1e308, 0.0, 0.0]},
        "solver": {"restarts": 8, "max_iter": 2}})
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert _strict_report(tmp_path / "out")["solver_status"] == "max_iterations"
    assert "max_iterations" in capsys.readouterr().out


#: subcommand -> (exit, message) on generators of 1e300.  reach samples
#: paths, and the flow overflows: a non-finite Heisenberg point, a hyperbolic
#: point with y = 0.  check-timeform samples none: its exact growth check
#: finds the generator that tau vanishes on.
HUGE_GENERATOR_VERDICTS = {
    "check-timeform": (1, "growth condition FAILS"),
    "reach": (2, "config error: cone: a sampled path leaves the model")}


def _huge_generator_message(capsys, code):
    out, err = capsys.readouterr()
    return err if code == 2 else out


@pytest.mark.parametrize("preset", ["heisenberg-sl", "hyperbolic"])
@pytest.mark.parametrize("subcommand", ["check-timeform", "reach"])
def test_huge_generators_exit_two_under_cone(tmp_path, capsys, preset, subcommand):
    path = write_config(tmp_path, {
        "version": 1, "preset": preset, "samples": 8,
        "cone": {"kind": "polyhedral", "generators": [[1e300, 0.0], [0.0, -1e300]]}})
    code, message = HUGE_GENERATOR_VERDICTS[subcommand]
    with np.errstate(all="ignore"):
        assert main([subcommand, "--config", path]) == code
    assert message in _huge_generator_message(capsys, code)


@pytest.mark.parametrize("preset", ["heisenberg-sl", "hyperbolic"])
@pytest.mark.parametrize("subcommand", ["check-timeform", "reach"])
def test_huge_generators_exit_two_without_warnings(tmp_path, capsys, preset,
                                                   subcommand):
    # the exit reports the overflow; numpy warns of none of it
    path = write_config(tmp_path, {
        "version": 1, "preset": preset, "samples": 8,
        "cone": {"kind": "polyhedral", "generators": [[1e300, 0.0], [0.0, -1e300]]}})
    code, message = HUGE_GENERATOR_VERDICTS[subcommand]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([subcommand, "--config", path]) == code
    assert message in _huge_generator_message(capsys, code)


def test_valid_huge_cone_passes_check_timeform(tmp_path):
    # generators of 1e300 inside the preset's cone: check-timeform integrates
    # no path, and the exact growth ratio is |(1, 1/2)| = sqrt(5) / 2
    path = write_config(tmp_path, {
        "version": 1, "preset": "heisenberg-sl",
        "cone": {"kind": "polyhedral",
                 "generators": [[1e300, 5e299], [1e300, -5e299]]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_config(path, "check-timeform")
    assert code == 0
    assert rep.payload["growth_rho"] == pytest.approx(np.sqrt(5.0) / 2.0, rel=1e-12)
    assert "potential_consistency_gap" not in rep.payload


@pytest.mark.parametrize("subcommand", ["check-structure", "check-timeform", "reach",
                                        "solve"])
def test_lorentz_cone_form_of_1e308_exits_zero_without_warnings(tmp_path, subcommand):
    # the Minkowski cone scaled by 1e308: symmetrizing its form as
    # 0.5 * (A + A.T) overflowed to inf - inf = NaN, and the cone was refused
    path = write_config(tmp_path, {
        "version": 1, "preset": "heisenberg-sl", "samples": 8,
        "cone": {"kind": "lorentz", "form": [[1e308, 0.0], [0.0, -1e308]],
                 "nappe_selector": [1.0, 0.0]},
        "endpoints": {"x0": [0.0, 0.0, 0.0], "x1": [3.0, 0.5, 0.2]},
        "solver": {"restarts": 3, "max_iter": 60, "inner_iter": 40}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_config(path, subcommand)
    assert code == 0
    if subcommand == "solve":
        # the preset cone's problem: its answer up to the solve's tolerance
        assert rep.payload["solver_status"] == "solved"
        assert rep.payload["objective"] == pytest.approx(2.948732626365034, rel=1e-5)


#: solves whose far endpoints overflow, and their exit code and status: the
#: refusal (through ``contains``), the step-2 chain at the end of a restart,
#: the hyperbolic forced average and the certified constant control each
#: warned outside the solver's local ``np.errstate`` blocks
FAR_SOLVES = [
    ({"preset": "minkowski11",
      "endpoints": {"x0": [0.0, 0.0], "x1": [-1e308, 3.0]},
      "solver": {"restarts": 1, "max_iter": 2, "inner_iter": 2}},
     1, "no_admissible_path"),
    ({"model": {"kind": "carnot", "builtin": "heisenberg"},
      "cone": {"kind": "polyhedral", "generators": [[1.0, 1.0], [1.0, -1.0]]},
      "antinorm": {"kind": "min_of_linear", "family": [[1.0, 0.5], [1.0, -0.5]]},
      "endpoints": {"x0": [-1e308, 0.0, 0.0], "x1": [2.0, 0.5, 0.1]},
      "solver": {"restarts": 1, "max_iter": 2, "inner_iter": 2}},
     1, "max_iterations"),
    ({"preset": "hyperbolic",
      "endpoints": {"x0": [0.0, 1e-300], "x1": [0.3, 2.0]},
      "solver": {"restarts": 1, "max_iter": 2, "inner_iter": 2}},
     1, "max_iterations"),
    ({"preset": "minkowski11",
      "endpoints": {"x0": [0.0, 0.0], "x1": [1e307, 3e306]},
      "solver": {"restarts": 1, "max_iter": 2}},
     0, "solved"),
]


@pytest.mark.parametrize("config, code, status", FAR_SOLVES)
def test_far_endpoints_solve_without_warnings(tmp_path, config, code, status):
    path = write_config(tmp_path, {"version": 1, "segments": 4, **config})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == code
    record = json.loads((tmp_path / "out" / "report.json").read_text())
    assert record["solver_status"] == status


#: a covector whose |tau| overflows, on the preset's cone and a 3-d Minkowski
#: cone, and its growth ratio: one over its least value on the light rays
HUGE_TAU = {
    "heisenberg-sl": ({"preset": "heisenberg-sl",
                       "timeform": {"kind": "left_invariant", "tau0": [1e308, 0.0, 0.0]}},
                      np.sqrt(2.0) / 1e308),
    "minkowski3": ({"model": {"kind": "abelian", "dim": 3},
                    "cone": {"kind": "lorentz", "form": np.diag([1.0, -1.0, -1.0]).tolist(),
                             "nappe_selector": [1.0, 0.0, 0.0]},
                    "timeform": {"kind": "left_invariant", "tau0": [1.7e308, 0.0, 0.0]}},
                   np.sqrt(2.0) / 1.7e308)}


@pytest.mark.parametrize("case", sorted(HUGE_TAU))
def test_huge_covector_passes_check_timeform(tmp_path, case):
    # the offend threshold 1e-12 |tau| read inf, so tau "vanished" on a ray
    config, rho = HUGE_TAU[case]
    path = write_config(tmp_path, {"version": 1, **config})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_config(path, "check-timeform")
    assert code == 0 and rep.payload["growth_passed"]
    assert rep.payload["growth_rho"] == pytest.approx(rho, rel=1e-12)


def test_huge_negative_antinorm_exits_two_under_antinorm(tmp_path, capsys):
    # the covector is -1.41e307 on the light ray (1, -1) / sqrt 2; with |c|
    # overflowing, the negativity test passed it and the solve exited 0
    path = write_config(tmp_path, {
        "version": 1, "preset": "heisenberg-sl",
        "antinorm": {"kind": "min_of_linear", "family": [[1e308, 1.2e308]]}})
    assert main(["solve", "--config", path]) == 2
    assert "config error: antinorm: antinorm is negative" in capsys.readouterr().err


@pytest.mark.parametrize("antinorm", [None, {"kind": "min_of_linear", "family": [[1.0, 0.0]]}],
                         ids=["lorentz_sqrt", "min_of_linear"])
def test_huge_generators_pass_check_structure_without_warnings(tmp_path, antinorm):
    # sampled rows of 1e155: the antinorm values and the min_of_linear band
    # used to overflow, warn, and fail homogeneity on inf - inf
    payload = {"version": 1, "preset": "heisenberg-sl",
               "cone": {"kind": "polyhedral",
                        "generators": [[1e154, 1e-300], [1e154, -1e-300]]}}
    if antinorm:
        payload["antinorm"] = antinorm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_config(write_config(tmp_path, payload), "check-structure")
    assert code == 0 and rep.status == "ok"


@pytest.mark.parametrize("subcommand",
                         ["solve", "check-structure", "check-timeform", "reach"])
def test_ill_conditioned_lorentz_cone_exits_two_under_cone(tmp_path, capsys,
                                                           subcommand):
    # eigenvalues 1e12 and -1: the relative signature cut refuses the form,
    # as it would refuse the rescaled image the growth check builds
    path = write_config(tmp_path, {
        "version": 1, "preset": "heisenberg-sl", "samples": 8,
        "cone": {"kind": "lorentz", "form": [[1e12, 0.0], [0.0, -1.0]],
                 "nappe_selector": [1.0, 0.0]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([subcommand, "--config", path]) == 2
    assert "config error: cone: form must have signature" in capsys.readouterr().err


def test_huge_nappe_selector_refuses_a_past_endpoint(tmp_path):
    # a selector of 1e200 selects the future nappe, which (-5, 3) is not in
    path = write_config(tmp_path, {
        "version": 1, "preset": "minkowski11",
        "cone": {"kind": "lorentz", "form": [[1.0, 0.0], [0.0, -1.0]],
                 "nappe_selector": [1e200, 0.0]},
        "endpoints": {"x0": [0.0, 0.0], "x1": [-5.0, 3.0]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_config(path, "solve")
    assert code == 1
    assert rep.payload["solver_status"] == "no_admissible_path"


#: entries of the sweep's cones: both overflow edges, the square-root edge,
#: the subnormal edge, zero and the unit
SWEEP_VALUES = [1e300, -1e300, 1e154, 1e-300, 0.0, 1.0, -1.0]


def _sweep_cones(x):
    for form in ([[x, 0.0], [0.0, -1.0]], [[-1.0, 0.0], [0.0, x]],
                 [[1.0, x], [x, -1.0]]):
        for selector in ([1.0, 0.0], [0.0, 1.0]):
            yield {"kind": "lorentz", "form": form, "nappe_selector": selector}
    for selector in ([x, 0.0], [0.0, x], [x, 1.0], [1.0, x]):
        yield {"kind": "lorentz", "form": [[1.0, 0.0], [0.0, -1.0]],
               "nappe_selector": selector}
        yield {"kind": "lorentz", "form": [[-1.0, 0.0], [0.0, 1.0]],
               "nappe_selector": selector}
    for gens in ([[x, 1.0], [x, -1.0]], [[1.0, x], [-1.0, x]], [[x, x], [x, -x]],
                 [[1.0, 0.0], [x, 1.0]], [[x, 0.0], [0.0, x]]):
        yield {"kind": "polyhedral", "generators": gens}


@pytest.mark.parametrize("x", SWEEP_VALUES)
@pytest.mark.parametrize("preset", ["heisenberg-sl", "hyperbolic"])
def test_check_timeform_sweep_of_extreme_cones(tmp_path, capsys, preset, x):
    # every cone built from extreme entries is answered or refused under
    # cone, with no traceback and no numpy warning
    for k, cone in enumerate(_sweep_cones(x)):
        path = write_config(tmp_path, {"version": 1, "preset": preset,
                                       "cone": cone}, f"{k}.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check-timeform", "--config", path])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), cone
        if code == 2:
            assert err.startswith("config error: cone"), (cone, err)


def test_main_missing_file_exit_two(capsys):
    assert main(["solve", "--config", "/nonexistent/x.json"]) == 2


def test_verify_subcommand_emits_json(tmp_path):
    out = tmp_path / "verify"
    code, rep = run_config(None, "verify", seed=0, out_dir=str(out))
    assert code == 0
    record = json.loads((out / "report.json").read_text())
    assert record["checks_passed"] == record["checks_total"]
    assert len(rep.payload["results"]) == record["checks_total"]


def test_verify_failure_exits_one(tmp_path, monkeypatch, capsys):
    # the forced failure stands in for the slowest check
    checks = list(verify.ALL_CHECKS)
    checks[checks.index(verify._check_bound_dominance)] = \
        lambda seed: verify.CheckResult("forced", False, "by the test")
    monkeypatch.setattr(verify, "ALL_CHECKS", checks)
    assert main(["verify", "--out", str(tmp_path)]) == 1
    assert "FAIL  forced: by the test" in capsys.readouterr().out
    record = json.loads((tmp_path / "report.json").read_text())
    assert record["checks_passed"] == record["checks_total"] - 1


def test_cloud_csv_formats_as_numpy_scalars_do():
    # the rows go through tolist(); the text is what formatting each numpy
    # scalar gave
    cloud = np.array([[-0.0, 5e-324, 1e300], [-1e300, 0.1, 1.0 / 3.0],
                      [2.0 ** -1074 * 3, -1.5e-308, 123456789.0]])

    class Model:
        def coordinate_names(self):
            return ["x", "y", "z"]

    old = "\n".join(["x,y,z"] + [",".join(f"{c:.17g}" for c in row) for row in cloud]) + "\n"
    assert _cloud_csv(cloud, Model()) == old
    assert "-0,4.9406564584124654e-324,1.0000000000000001e+300" in old
    # one %-format per row gives the same bytes, non-finite entries included
    rows = np.random.default_rng(0).standard_normal((500, 3)) * 10.0 ** np.arange(-3, 6, 3)
    rows[0] = [np.inf, -np.inf, np.nan]
    old = "\n".join(["x,y,z"] + [",".join(f"{c:.17g}" for c in row) for row in rows]) + "\n"
    assert _cloud_csv(rows, Model()) == old


def test_emit_report_returns_paths(tmp_path):
    path = write_config(tmp_path, {"version": 1, "preset": "minkowski11",
                                   "samples": 8})
    _, rep = run_config(path, "reach")
    written = emit_report(rep, str(tmp_path / "emitted"))
    names = {p.split("/")[-1] for p in written}
    assert names == {"report.json", "summary.txt", "cloud.csv"}


def test_check_structure_refuses_a_form_with_two_positive_eigenvalues(tmp_path, capsys):
    # diag(1, 1e-8, -1) on the cone of diag(1, -4, -4): the sampled axioms
    # passed it, and the exact certificate names a pair that fails
    path = write_config(tmp_path, {
        "version": 1,
        "cone": {"kind": "lorentz", "form": [[1.0, 0.0, 0.0], [0.0, -4.0, 0.0],
                                             [0.0, 0.0, -4.0]],
                 "nappe_selector": [1.0, 0.0, 0.0]},
        "antinorm": {"kind": "lorentz_sqrt", "form": [[1.0, 0.0, 0.0], [0.0, 1e-8, 0.0],
                                                      [0.0, 0.0, -1.0]]}})
    out = tmp_path / "out"
    assert main(["check-structure", "--config", path, "--out", str(out)]) == 1
    assert "antinorm axioms FAILED (superadditivity)" in capsys.readouterr().out
    record = json.loads((out / "report.json").read_text())
    assert record["antinorm_axioms_passed"] is False and record["status"] == "failed"
    ce = record["antinorm_counterexample"]
    cfg = load_config(path)
    xi, zeta = np.array(ce["xi"]), np.array(ce["zeta"])
    va, vb, vsum = antinorm_eval(cfg.antinorm, cfg.cone, np.array([xi, zeta, xi + zeta]))
    assert vsum < va + vb and ce["nu(xi+zeta)"] == vsum


def test_check_structure_reads_no_samples(tmp_path):
    # the certificate is exact: samples and seed leave the report as it is
    reports = []
    for samples, seed in ((10, 0), (10000, 7)):
        path = write_config(tmp_path, {"version": 1, "preset": "heisenberg-sl",
                                       "samples": samples, "seed": seed})
        code, rep = run_config(path, "check-structure")
        assert code == 0
        assert rep.text[-1] == "antinorm axioms hold (exact certificate)"
        reports.append({k: v for k, v in json.loads(rep.to_json()).items() if k != "seed"})
    assert reports[0] == reports[1]


@pytest.mark.parametrize("antinorm", [{"kind": "lorentz_sqrt", "form": [[1.0, 0.0], [0.0, -1.0]]},
                                      {"kind": "min_of_linear", "family": [[1.0, 0.0]]}],
                         ids=["lorentz_sqrt", "min_of_linear"])
def test_check_structure_on_generators_of_1e308_warns_of_nothing(tmp_path, antinorm):
    # the sampled axioms drew rows that overflowed, warned, and passed NaN
    path = write_config(tmp_path, {
        "version": 1, "antinorm": antinorm,
        "cone": {"kind": "polyhedral", "generators": [[1e308, 5e307], [1e308, -5e307]]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_config(path, "check-structure")
    assert code == 0 and rep.payload["antinorm_axioms_passed"]
