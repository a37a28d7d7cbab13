"""Tests of the CLI: schema validation, artifacts, exit codes, reproducibility."""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revolve
from revolve import cli, limits, simulator, stats
from revolve.cli import ExperimentConfig, load_config, main
from revolve.profiles import FieldError, builtin_profile
from revolve.stats import limit_for_config

BASE_EVOLUTION = {
    "dimension": 2,
    "epsilon": 0.1,
    "horizon": 1.0,
    "x0": [0.0, 0.0],
    "n_paths": 400,
    "seed": 7,
    "profile": {"name": "msre_const", "c": 1.0},
}


def write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestSchema:
    def test_valid_config_parses(self):
        config = load_config({"evolution": dict(BASE_EVOLUTION)}, "simulate")
        assert config.evolution.n_paths == 400
        assert config.mode == "simulate"

    def test_unknown_key_rejected_with_path(self):
        doc = {"evolution": dict(BASE_EVOLUTION), "extra": 1}
        with pytest.raises(FieldError) as err:
            load_config(doc, "simulate")
        assert err.value.field == "config.extra"

    def test_negative_epsilon_path(self):
        evo = dict(BASE_EVOLUTION, epsilon=-0.5)
        with pytest.raises(FieldError) as err:
            load_config({"evolution": evo}, "simulate")
        assert err.value.field == "config.evolution.epsilon"

    def test_missing_required_key(self):
        evo = dict(BASE_EVOLUTION)
        del evo["horizon"]
        with pytest.raises(FieldError) as err:
            load_config({"evolution": evo}, "simulate")
        assert err.value.field == "config.evolution.horizon"

    def test_x0_length_checked(self):
        evo = dict(BASE_EVOLUTION, x0=[0.0, 0.0, 0.0])
        with pytest.raises(FieldError) as err:
            load_config({"evolution": evo}, "simulate")
        assert err.value.field == "config.evolution.x0"

    def test_mode_mismatch_rejected(self):
        doc = {"mode": "simulate", "evolution": dict(BASE_EVOLUTION)}
        with pytest.raises(FieldError) as err:
            load_config(doc, "converge")
        assert err.value.field == "config.mode"

    def test_atoms_profile_parses(self):
        evo = dict(
            BASE_EVOLUTION,
            profile={
                "atoms": [
                    {"angles": [0.0], "weight": 1.0, "c": 1.0, "c1": 0.0},
                    {"angles": [math.pi], "weight": 1.0, "c": 1.0, "c1": 0.0},
                ]
            },
        )
        config = load_config({"evolution": evo}, "simulate")
        assert len(config.evolution.profile.atoms) == 2

    def test_discrete_switching_parses(self):
        evo = dict(
            BASE_EVOLUTION,
            switching={
                "kind": "discrete",
                "angles": [[0.0], [math.pi]],
                "probabilities": [0.5, 0.5],
            },
        )
        config = load_config({"evolution": evo}, "simulate")
        assert config.evolution.switching.angles.shape == (2, 1)

    def test_seed_override(self):
        config = load_config({"evolution": dict(BASE_EVOLUTION)}, "simulate", seed_override=99)
        assert config.evolution.seed == 99

    @pytest.mark.parametrize(
        "key, value",
        [("grid_resolution", 1), ("eps_sweep", [0.5, 0.4, 0.3, 0.2]), ("output_dir", 3),
         ("mode", "fly")],
    )
    def test_experiment_config_refuses_what_load_config_refuses(self, key, value):
        evolution = load_config({"evolution": dict(BASE_EVOLUTION)}, "simulate").evolution
        with pytest.raises(FieldError) as direct:
            ExperimentConfig(**{"mode": "simulate", "evolution": evolution, key: value})
        with pytest.raises(FieldError) as loaded:
            load_config({"evolution": dict(BASE_EVOLUTION), key: value}, "simulate")
        assert (direct.value.field, loaded.value.field) == (key, f"config.{key}")
        assert str(direct.value) == str(loaded.value)

    @pytest.mark.parametrize("resolution", [2.5, math.nan, "8"])
    def test_experiment_config_refuses_a_resolution_that_is_not_whole(self, resolution):
        evolution = load_config({"evolution": dict(BASE_EVOLUTION)}, "simulate").evolution
        with pytest.raises(FieldError) as err:
            ExperimentConfig("simulate", evolution, grid_resolution=resolution)
        assert err.value.field == "grid_resolution"
        assert str(err.value) == f"resolution must be a whole number, got {resolution!r}"

    def test_experiment_config_keeps_a_whole_resolution_as_int(self):
        evolution = load_config({"evolution": dict(BASE_EVOLUTION)}, "simulate").evolution
        config = ExperimentConfig("simulate", evolution, grid_resolution=np.float64(6.0))
        assert type(config.grid_resolution) is int and config.grid_resolution == 6
        assert config.describe()["grid_resolution"] == 6


class TestExitCodes:
    def test_schema_violation_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"evolution": dict(BASE_EVOLUTION, epsilon=-1.0)})
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["error"]["kind"] == "schema"
        assert payload["error"]["path"] == "config.evolution.epsilon"

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().out == (
            '{"error": {"kind": "schema", "message": "config: cannot read config file: [Errno 2] '
            """No such file or directory: 'TMP/nope.json'", "path": "config"}}\n"""
        ).replace("TMP", str(tmp_path))

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().out == (
            '{"error": {"kind": "schema", "message": "config: invalid JSON: Expecting property '
            'name enclosed in double quotes: line 1 column 2 (char 1)", "path": "config"}}\n'
        )

    def test_balance_failure_exit_3(self, tmp_path, capsys):
        evo = dict(
            BASE_EVOLUTION,
            profile={"atoms": [{"angles": [0.0], "weight": 1.0, "c": 1.0, "c1": 0.0}]},
        )
        path = write_config(tmp_path, {"evolution": evo})
        code = main(["limit-coeffs", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 3
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["error"]["kind"] == "balance"
        assert abs(payload["error"]["residual"][0] - 1.0 / (2.0 * math.pi)) < 1e-10

    def test_out_of_memory_exit_1_names_the_completed_paths(self, tmp_path, capsys):
        # a path expects 1e14 switches: its chunk 0 of uniforms, 800 TB,
        # cannot be allocated
        evo = dict(BASE_EVOLUTION, epsilon=1e-7, n_paths=4)
        path = write_config(tmp_path, {"evolution": evo})
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        line, = captured.out.splitlines()
        error = json.loads(line)["error"]
        assert error["kind"] == "resource"
        assert error["message"].startswith("resource exhaustion (Unable to allocate")
        assert error["message"].endswith("completed paths [0, 0) of [0, 4)")
        assert captured.err == ""

    @pytest.mark.parametrize("mode", ["verify-operators", "limit-coeffs", "report", "converge"])
    def test_grid_out_of_memory_exit_1_names_the_grid(self, tmp_path, capsys, monkeypatch, mode):
        # n = 8 at resolution 10^6 is 2 10^42 nodes; the builder raises as
        # numpy would, without allocating
        def no_memory(n, resolution):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(limits, "build_grid", no_memory)
        evo = dict(BASE_EVOLUTION, dimension=8, x0=[0.0] * 8)
        path = write_config(tmp_path, {"evolution": evo, "grid_resolution": 10**6})
        out = tmp_path / "out"
        assert main([mode, "--config", path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"error": {"kind": "resource", "message": (
            "resource exhaustion (Unable to allocate 7.28 TiB) on the sphere grid of n = 8 "
            f"at resolution 1000000: {2 * 10**42} nodes")}}
        assert captured.err == ""
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("mode, owner, name", [
        ("verify-operators", cli, "lab_limit_coefficients"),
        ("verify-operators", cli, "residual_scaling"),
        ("limit-coeffs", stats, "limit_coefficients"),
    ], ids=["lab", "residual_scaling", "limit_coefficients"])
    def test_out_of_memory_past_the_grid_names_the_grid(self, tmp_path, capsys, monkeypatch,
                                                       mode, owner, name):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 1.00 GiB")

        monkeypatch.setattr(owner, name, no_memory)
        # example3_atoms adds its 3 atoms to the 16 sphere nodes of resolution 8
        for evo, grid in [
            (dict(BASE_EVOLUTION, profile={"name": "example3_atoms"}),
             "the sphere grid of n = 2 at resolution 8: 19 nodes"),
            (dict(BASE_EVOLUTION, switching=two_point_law([0.5, 0.5])),
             "the finite law's grid of n = 2: 2 nodes"),
        ]:
            path = write_config(tmp_path, {"evolution": evo, "grid_resolution": 8})
            assert main([mode, "--config", path, "--out", str(tmp_path / "out")]) == 1
            assert json.loads(capsys.readouterr().out) == {"error": {"kind": "resource", "message":
                f"resource exhaustion (Unable to allocate 1.00 GiB) on {grid}"}}


def two_point_law(probabilities):
    return {"kind": "discrete", "angles": [[0.0], [math.pi]], "probabilities": probabilities}


# (id, subcommand, config document, extra arguments, exit code, error.path)
INVALID_CONFIGS = [
    (
        "dimension_1",
        "simulate",
        {"evolution": dict(BASE_EVOLUTION, dimension=1, x0=[0.0])},
        [],
        2,
        "config.evolution.dimension",
    ),
    ("epsilon_0", "simulate", {"evolution": dict(BASE_EVOLUTION, epsilon=0)}, [], 2,
     "config.evolution.epsilon"),
    ("epsilon_1.5", "simulate", {"evolution": dict(BASE_EVOLUTION, epsilon=1.5)}, [], 2,
     "config.evolution.epsilon"),
    ("epsilon_-1", "simulate", {"evolution": dict(BASE_EVOLUTION, epsilon=-1)}, [], 2,
     "config.evolution.epsilon"),
    ("horizon_0", "simulate", {"evolution": dict(BASE_EVOLUTION, horizon=0)}, [], 2,
     "config.evolution.horizon"),
    ("n_paths_0", "simulate", {"evolution": dict(BASE_EVOLUTION, n_paths=0)}, [], 2,
     "config.evolution.n_paths"),
    # path i's chunks start at Philox counter i w C/4, which must fit in the
    # counter's two low words: C = 18 pairs at epsilon 0.5 under a finite
    # law, C = 20 single uniforms under the uniform law
    ("n_paths_past_the_counters", "simulate",
     {"evolution": dict(BASE_EVOLUTION, epsilon=0.5, n_paths=2**127,
                        switching=two_point_law([0.5, 0.5]))},
     [], 2, "config.evolution.n_paths"),
    ("n_paths_past_the_counters_uniform", "simulate",
     {"evolution": dict(BASE_EVOLUTION, epsilon=0.5, n_paths=2**126)},
     [], 2, "config.evolution.n_paths"),
    ("seed_-1", "simulate", {"evolution": dict(BASE_EVOLUTION, seed=-1)}, [], 2,
     "config.evolution.seed"),
    ("seed_2**64", "simulate", {"evolution": dict(BASE_EVOLUTION, seed=2**64)}, [], 2,
     "config.evolution.seed"),
    ("seed_option_-1", "simulate", {"evolution": dict(BASE_EVOLUTION)}, ["--seed", "-1"], 2,
     "config.evolution.seed"),
    ("x0_length", "simulate", {"evolution": dict(BASE_EVOLUTION, x0=[0.0, 0.0, 0.0])}, [], 2,
     "config.evolution.x0"),
    (
        "initial_direction_length",
        "simulate",
        {"evolution": dict(BASE_EVOLUTION, initial_direction=[0.0, 1.0])},
        [],
        2,
        "config.evolution.initial_direction",
    ),
    (
        "probabilities_negative",
        "simulate",
        {"evolution": dict(BASE_EVOLUTION, switching=two_point_law([-0.5, 1.5]))},
        [],
        2,
        "config.evolution.switching.probabilities",
    ),
    (
        "probabilities_sum",
        "simulate",
        {"evolution": dict(BASE_EVOLUTION, switching=two_point_law([0.6, 0.5]))},
        [],
        2,
        "config.evolution.switching.probabilities",
    ),
    (
        "atom_weight_0",
        "limit-coeffs",
        {
            "evolution": dict(
                BASE_EVOLUTION,
                profile={"atoms": [{"angles": [0.0], "weight": 0, "c": 1.0, "c1": 0.0}]},
            )
        },
        [],
        2,
        "config.evolution.profile.atoms[0].weight",
    ),
    (
        "atom_angles_count",
        "limit-coeffs",
        {
            "evolution": dict(
                BASE_EVOLUTION,
                profile={"atoms": [{"angles": [0.0], "weight": 1.0, "c": 1.0, "c1": 0.0},
                                   {"angles": [0.0, 1.0], "weight": 1.0, "c": 1.0, "c1": 0.0}]},
            )
        },
        [],
        2,
        "config.evolution.profile.atoms[1].angles",
    ),
    (
        "atom_masses_over_one",
        "limit-coeffs",
        {
            "evolution": dict(
                BASE_EVOLUTION,
                profile={"atoms": [{"angles": [0.0], "weight": 4.0, "c": 1.0, "c1": 0.0},
                                   {"angles": [math.pi], "weight": 4.0, "c": 1.0, "c1": 0.0}]},
            )
        },
        [],
        2,
        "config.evolution.profile.atoms",
    ),
    # example3_atoms's atom at pi / 2 lies on none of the law's directions
    ("atom_off_the_law_limit_coeffs", "limit-coeffs",
     {"evolution": dict(BASE_EVOLUTION, profile={"name": "example3_atoms"},
                        switching=two_point_law([0.5, 0.5]))},
     [], 2, "config.evolution.profile.atoms"),
    ("atom_off_the_law_simulate", "simulate",
     {"evolution": dict(BASE_EVOLUTION, profile={"name": "example3_atoms"},
                        switching=two_point_law([0.5, 0.5]))},
     [], 2, "config.evolution.profile.atoms"),
    (
        "angle_row_not_numeric",
        "simulate",
        {
            "evolution": dict(
                BASE_EVOLUTION,
                switching={"kind": "discrete", "angles": [[0.0], ["pi"]],
                           "probabilities": [0.5, 0.5]},
            )
        },
        [],
        2,
        "config.evolution.switching.angles[1]",
    ),
    # horizon / epsilon^2 is finite, but a path's chunk of uniforms is
    # longer than a numpy array can be
    ("epsilon_1e-100", "simulate", {"evolution": dict(BASE_EVOLUTION, epsilon=1e-100)}, [], 2,
     "config.evolution.epsilon"),
    (
        "eps_sweep_nonpositive_simulate",
        "simulate",
        {"evolution": dict(BASE_EVOLUTION), "eps_sweep": [0.1, 0.01, 0.001, 0.0]},
        [],
        2,
        "config.eps_sweep",
    ),
    (
        "eps_sweep_nonpositive_converge",
        "converge",
        {"evolution": dict(BASE_EVOLUTION), "eps_sweep": [0.1, 0.01, -0.001, 0.0001]},
        [],
        2,
        "config.eps_sweep",
    ),
]


def run_cli(tmp_path, capsys, mode, document, extra=()):
    """Exit code and the last printed line (None when nothing is printed)."""
    path = write_config(tmp_path, document)
    code = main([mode, "--config", path, "--out", str(tmp_path / "out"), *extra])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[-1] if lines else None


class TestInvalidConfigPaths:
    @pytest.mark.parametrize(
        "case, mode, document, extra, code, path",
        INVALID_CONFIGS,
        ids=[case[0] for case in INVALID_CONFIGS],
    )
    def test_exit_code_and_error_path(
        self, tmp_path, capsys, case, mode, document, extra, code, path
    ):
        exit_code, line = run_cli(tmp_path, capsys, mode, document, extra)
        assert (exit_code, json.loads(line)["error"]["path"]) == (code, path)
        assert line == ERROR_LINES[case]


@pytest.mark.parametrize("resolution", [1, 0, -3])
def test_grid_resolution_below_two_exit_2(tmp_path, capsys, resolution):
    document = {"evolution": dict(BASE_EVOLUTION), "grid_resolution": resolution}
    exit_code, line = run_cli(tmp_path, capsys, "limit-coeffs", document)
    payload = json.loads(line)
    assert (exit_code, payload["error"]["path"]) == (2, "config.grid_resolution")
    assert payload["error"]["message"] == (
        f"config.grid_resolution: resolution must be >= 2, got {resolution}"
    )
    assert not (tmp_path / "out").exists()


# Configs that ran (exit 0) or exited 1 when each rule had several copies
# (id, subcommand, config document, error.path); each now exits 2.
NEW_REJECTIONS = [
    ("x0_nan", "simulate", {"evolution": dict(BASE_EVOLUTION, x0=[math.nan, 0.0])},
     "config.evolution.x0"),
    (
        "initial_direction_infinity",
        "simulate",
        {"evolution": dict(BASE_EVOLUTION, initial_direction=[math.inf])},
        "config.evolution.initial_direction",
    ),
    (
        "probabilities_nan",
        "simulate",
        {"evolution": dict(BASE_EVOLUTION, switching=two_point_law([math.nan, 1.0]))},
        "config.evolution.switching.probabilities",
    ),
    (
        "msre_const_c1",
        "limit-coeffs",
        {"evolution": dict(BASE_EVOLUTION, profile={"name": "msre_const", "c1": 2.0})},
        "config.evolution.profile.c1",
    ),
    (
        "sin_theta1_c",
        "limit-coeffs",
        {"evolution": dict(BASE_EVOLUTION, dimension=3, x0=[0.0] * 3,
                           profile={"name": "sin_theta1", "c": 7.0})},
        "config.evolution.profile.c",
    ),
    (
        "sin_theta1_c1",
        "limit-coeffs",
        {"evolution": dict(BASE_EVOLUTION, dimension=3, x0=[0.0] * 3,
                           profile={"name": "sin_theta1", "c1": 7.0})},
        "config.evolution.profile.c1",
    ),
    (
        "example3_atoms_c",
        "limit-coeffs",
        {"evolution": dict(BASE_EVOLUTION, profile={"name": "example3_atoms", "c": 2.0})},
        "config.evolution.profile.c",
    ),
    (
        "example3_atoms_c1",
        "limit-coeffs",
        {"evolution": dict(BASE_EVOLUTION, profile={"name": "example3_atoms", "c1": 2.0})},
        "config.evolution.profile.c1",
    ),
    ("replicates", "simulate", {"evolution": dict(BASE_EVOLUTION), "replicates": 20},
     "config.replicates"),
    (
        "converge_three_eps",
        "converge",
        {"evolution": dict(BASE_EVOLUTION), "eps_sweep": [0.5, 0.1, 0.05]},
        "config.eps_sweep",
    ),
    (
        "converge_under_a_decade",
        "converge",
        {"evolution": dict(BASE_EVOLUTION), "eps_sweep": [0.5, 0.4, 0.3, 0.2]},
        "config.eps_sweep",
    ),
    (
        "converge_eps_above_1",
        "converge",
        {"evolution": dict(BASE_EVOLUTION), "eps_sweep": [1.5, 0.5, 0.1, 0.05]},
        "config.eps_sweep",
    ),
    (
        "switching_ragged_rows",
        "simulate",
        {
            "evolution": dict(
                BASE_EVOLUTION,
                dimension=3,
                x0=[0.0] * 3,
                switching={"kind": "discrete", "angles": [[0.0, 1.0], [1.0]],
                           "probabilities": [0.5, 0.5]},
            )
        },
        "config.evolution.switching.angles",
    ),
    # horizon / epsilon^2 overflows, or epsilon^2 underflows to 0
    ("epsilon_1e-160", "simulate", {"evolution": dict(BASE_EVOLUTION, epsilon=1e-160)},
     "config.evolution.epsilon"),
    ("epsilon_1e-300", "simulate", {"evolution": dict(BASE_EVOLUTION, epsilon=1e-300)},
     "config.evolution.epsilon"),
]

# The whole stdout line of each case of INVALID_CONFIGS and NEW_REJECTIONS.
ERROR_LINES = {
    "dimension_1": (
        '{"error": {"kind": "schema", "message": "config.evolution.dimension: dimension '
        'must be >= 2, got 1", "path": "config.evolution.dimension"}}'
    ),
    "epsilon_0": (
        '{"error": {"kind": "schema", "message": "config.evolution.epsilon: epsilon must '
        'lie in (0, 1], got 0.0", "path": "config.evolution.epsilon"}}'
    ),
    "epsilon_1.5": (
        '{"error": {"kind": "schema", "message": "config.evolution.epsilon: epsilon must '
        'lie in (0, 1], got 1.5", "path": "config.evolution.epsilon"}}'
    ),
    "epsilon_-1": (
        '{"error": {"kind": "schema", "message": "config.evolution.epsilon: epsilon must '
        'lie in (0, 1], got -1.0", "path": "config.evolution.epsilon"}}'
    ),
    "horizon_0": (
        '{"error": {"kind": "schema", "message": "config.evolution.horizon: horizon must be '
        'positive and finite, got 0.0", "path": "config.evolution.horizon"}}'
    ),
    "n_paths_0": (
        '{"error": {"kind": "schema", "message": "config.evolution.n_paths: n_paths must be '
        '>= 1, got 0", "path": "config.evolution.n_paths"}}'
    ),
    "n_paths_past_the_counters": (
        '{"error": {"kind": "schema", "message": "config.evolution.n_paths: n_paths '
        '170141183460469231731687303715884105728 is too large for epsilon 0.5 and horizon '
        '1.0: at 9 Philox blocks per path, the paths\' chunks pass the 2^128 counters of a '
        'stream\'s counter words 0-1", "path": "config.evolution.n_paths"}}'
    ),
    "n_paths_past_the_counters_uniform": (
        '{"error": {"kind": "schema", "message": "config.evolution.n_paths: n_paths '
        '85070591730234615865843651857942052864 is too large for epsilon 0.5 and horizon '
        '1.0: at 5 Philox blocks per path, the paths\' chunks pass the 2^128 counters of a '
        'stream\'s counter words 0-1", "path": "config.evolution.n_paths"}}'
    ),
    "seed_-1": (
        '{"error": {"kind": "schema", "message": "config.evolution.seed: seed must be an '
        'unsigned 64-bit integer, got -1", "path": "config.evolution.seed"}}'
    ),
    "seed_2**64": (
        '{"error": {"kind": "schema", "message": "config.evolution.seed: seed must be an '
        'unsigned 64-bit integer, got 18446744073709551616", "path": '
        '"config.evolution.seed"}}'
    ),
    "seed_option_-1": (
        '{"error": {"kind": "schema", "message": "config.evolution.seed: seed must be an '
        'unsigned 64-bit integer, got -1", "path": "config.evolution.seed"}}'
    ),
    "x0_length": (
        '{"error": {"kind": "schema", "message": "config.evolution.x0: x0 must have shape '
        '(2,), got (3,)", "path": "config.evolution.x0"}}'
    ),
    "initial_direction_length": (
        '{"error": {"kind": "schema", "message": "config.evolution.initial_direction: '
        'initial_direction must have n-1 angles", "path": '
        '"config.evolution.initial_direction"}}'
    ),
    "probabilities_negative": (
        '{"error": {"kind": "schema", "message": "config.evolution.switching.probabilities: '
        'probabilities must be finite, nonnegative and sum to 1 within 1e-12", "path": '
        '"config.evolution.switching.probabilities"}}'
    ),
    "probabilities_sum": (
        '{"error": {"kind": "schema", "message": "config.evolution.switching.probabilities: '
        'probabilities must be finite, nonnegative and sum to 1 within 1e-12", "path": '
        '"config.evolution.switching.probabilities"}}'
    ),
    "atom_weight_0": (
        '{"error": {"kind": "schema", "message": "config.evolution.profile.atoms[0].weight: '
        'atom weight must be positive, got 0.0", "path": '
        '"config.evolution.profile.atoms[0].weight"}}'
    ),
    "atom_angles_count": (
        '{"error": {"kind": "schema", "message": "config.evolution.profile.atoms[1].angles: '
        'atom has 2 angles, expected 1", "path": "config.evolution.profile.atoms[1].angles"}}'
    ),
    "atom_masses_over_one": (
        '{"error": {"kind": "schema", "message": "config.evolution.profile.atoms: the atoms\' '
        'masses weight / N (N = 6.283185307179586) sum to 1.2732395447351628, more than 1", '
        '"path": "config.evolution.profile.atoms"}}'
    ),
    "atom_off_the_law_limit_coeffs": (
        '{"error": {"kind": "schema", "message": "config.evolution.profile.atoms: atom 2 at '
        "angles [1.5707963267948966] lies on no point node of the switching law's grid, so "
        'the law never takes its direction", "path": "config.evolution.profile.atoms"}}'
    ),
    "atom_off_the_law_simulate": (
        '{"error": {"kind": "schema", "message": "config.evolution.profile.atoms: atom 2 at '
        "angles [1.5707963267948966] lies on no point node of the switching law's grid, so "
        'the law never takes its direction", "path": "config.evolution.profile.atoms"}}'
    ),
    "angle_row_not_numeric": (
        '{"error": {"kind": "schema", "message": "config.evolution.switching.angles[1]: '
        'expected a list of finite numbers", "path": "config.evolution.switching.angles[1]"}}'
    ),
    "eps_sweep_nonpositive_simulate": (
        '{"error": {"kind": "schema", "message": "config.eps_sweep: epsilon values must lie '
        'in (0, 1]", "path": "config.eps_sweep"}}'
    ),
    "eps_sweep_nonpositive_converge": (
        '{"error": {"kind": "schema", "message": "config.eps_sweep: epsilon values must lie '
        'in (0, 1]", "path": "config.eps_sweep"}}'
    ),
    "x0_nan": (
        '{"error": {"kind": "schema", "message": "config.evolution.x0: expected a list of '
        'finite numbers", "path": "config.evolution.x0"}}'
    ),
    "initial_direction_infinity": (
        '{"error": {"kind": "schema", "message": "config.evolution.initial_direction: '
        'expected a list of finite numbers", "path": "config.evolution.initial_direction"}}'
    ),
    "probabilities_nan": (
        '{"error": {"kind": "schema", "message": "config.evolution.switching.probabilities: '
        'expected a list of finite numbers", "path": '
        '"config.evolution.switching.probabilities"}}'
    ),
    "msre_const_c1": (
        '{"error": {"kind": "schema", "message": "config.evolution.profile.c1: msre_const '
        'takes only [\'c\']", "path": "config.evolution.profile.c1"}}'
    ),
    "sin_theta1_c": (
        '{"error": {"kind": "schema", "message": "config.evolution.profile.c: sin_theta1 '
        'takes only []", "path": "config.evolution.profile.c"}}'
    ),
    "sin_theta1_c1": (
        '{"error": {"kind": "schema", "message": "config.evolution.profile.c1: sin_theta1 '
        'takes only []", "path": "config.evolution.profile.c1"}}'
    ),
    "example3_atoms_c": (
        '{"error": {"kind": "schema", "message": "config.evolution.profile.c: '
        'example3_atoms takes only []", "path": "config.evolution.profile.c"}}'
    ),
    "example3_atoms_c1": (
        '{"error": {"kind": "schema", "message": "config.evolution.profile.c1: '
        'example3_atoms takes only []", "path": "config.evolution.profile.c1"}}'
    ),
    "replicates": (
        '{"error": {"kind": "schema", "message": "config.replicates: unknown key", "path": '
        '"config.replicates"}}'
    ),
    "converge_three_eps": (
        '{"error": {"kind": "schema", "message": "config.eps_sweep: need at least 4 epsilon '
        'values", "path": "config.eps_sweep"}}'
    ),
    "converge_under_a_decade": (
        '{"error": {"kind": "schema", "message": "config.eps_sweep: epsilon values must '
        'span at least 1 decade(s)", "path": "config.eps_sweep"}}'
    ),
    "converge_eps_above_1": (
        '{"error": {"kind": "schema", "message": "config.eps_sweep: epsilon values must lie '
        'in (0, 1]", "path": "config.eps_sweep"}}'
    ),
    "switching_ragged_rows": (
        '{"error": {"kind": "schema", "message": "config.evolution.switching.angles: angle '
        'rows must all have the same length", "path": "config.evolution.switching.angles"}}'
    ),
    "epsilon_1e-100": (
        '{"error": {"kind": "schema", "message": "config.evolution.epsilon: epsilon 1e-100 '
        'is too small for horizon 1.0: a path\'s chunk of 1e+200 uniforms is more float64 '
        'values than numpy can index", "path": "config.evolution.epsilon"}}'
    ),
    "epsilon_1e-160": (
        '{"error": {"kind": "schema", "message": "config.evolution.epsilon: epsilon 1e-160 '
        'is too small for horizon 1.0: the expected switch count horizon / epsilon^2 is not '
        'a finite float", "path": "config.evolution.epsilon"}}'
    ),
    "epsilon_1e-300": (
        '{"error": {"kind": "schema", "message": "config.evolution.epsilon: epsilon 1e-300 '
        'is too small for horizon 1.0: the expected switch count horizon / epsilon^2 is not '
        'a finite float", "path": "config.evolution.epsilon"}}'
    ),
}


class TestNewRejections:
    @pytest.mark.parametrize(
        "case, mode, document, path",
        NEW_REJECTIONS,
        ids=[case[0] for case in NEW_REJECTIONS],
    )
    def test_exit_2_at_path(self, tmp_path, capsys, case, mode, document, path):
        exit_code, line = run_cli(tmp_path, capsys, mode, document)
        assert (exit_code, json.loads(line)["error"]["path"]) == (2, path)
        assert line == ERROR_LINES[case]

    def test_atom_speed_type_error_names_the_key(self):
        atom = {"angles": [0.0], "weight": 1.0, "c": "fast", "c1": 0.0}
        with pytest.raises(FieldError) as err:
            load_config({"evolution": dict(BASE_EVOLUTION, profile={"atoms": [atom]})}, "simulate")
        assert err.value.field == "config.evolution.profile.atoms[0].c"

    def test_builtin_keys_that_are_used_still_parse(self):
        evo = dict(BASE_EVOLUTION, profile={"name": "step_half_sphere", "c": 2.0, "c1": 3.0})
        profile = load_config({"evolution": evo}, "simulate").evolution.profile
        assert (profile.continuous_c.value, profile.continuous_c1.height) == (2.0, 3.0)


class TestLimitCoeffs:
    def test_example3_values(self, tmp_path, capsys):
        evo = dict(BASE_EVOLUTION, profile={"name": "example3_atoms"})
        path = write_config(tmp_path, {"evolution": evo})
        out = tmp_path / "out"
        assert main(["limit-coeffs", "--config", path, "--out", str(out)]) == 0
        payload = json.loads((out / "limit_coeffs.json").read_text())
        assert abs(payload["drift"][0]) < 1e-5
        assert abs(payload["drift"][1] - 0.15915) < 1e-4
        assert abs(payload["A"][0][0] - 0.31831) < 1e-4
        assert abs(payload["A"][1][1]) < 1e-5
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed == payload

    def test_paper_sign_flag(self, tmp_path, capsys):
        evo = dict(BASE_EVOLUTION, profile={"name": "example3_atoms"})
        path = write_config(tmp_path, {"evolution": evo})
        out = tmp_path / "o2"
        assert main(["limit-coeffs", "--config", path, "--out", str(out), "--paper-sign"]) == 0
        payload = json.loads((out / "limit_coeffs.json").read_text())
        np.testing.assert_allclose(
            payload["drift_paper_sign"], [-v for v in payload["drift"]]
        )


EXAMPLE3_LAW = {
    "kind": "discrete",
    "angles": [[0.0], [math.pi], [math.pi / 2.0]],
    "probabilities": [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
}


class TestFiniteLawSubcommands:
    """limit-coeffs and verify-operators follow evolution.switching."""

    def test_limit_coeffs_uses_the_law(self, tmp_path):
        evo = dict(BASE_EVOLUTION, profile={"name": "example3_atoms"}, switching=EXAMPLE3_LAW)
        document = {"evolution": evo}
        out = tmp_path / "out"
        assert main(["limit-coeffs", "--config", write_config(tmp_path, document),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "limit_coeffs.json").read_text())
        np.testing.assert_allclose(payload["drift"], [0.0, 1.0 / 3.0], atol=1e-15)
        np.testing.assert_allclose(payload["A"], np.diag([2.0 / 3.0, 0.0]), atol=1e-15)
        # the limit report and converge test against
        limit = limit_for_config(load_config(document, "report").evolution)
        assert payload == {"drift": limit.drift.tolist(), "A": limit.diffusion.tolist()}

    def test_verify_operators_runs_the_hierarchy_on_the_law(self, tmp_path):
        evo = dict(BASE_EVOLUTION, profile={"name": "example3_atoms"}, switching=EXAMPLE3_LAW)
        out = tmp_path / "out"
        assert main(["verify-operators", "--config", write_config(tmp_path, {"evolution": evo}),
                     "--out", str(out)]) == 0
        report = json.loads((out / "operator_report.json").read_text())
        assert 0.9 <= report["residual_scaling"]["slope"] <= 1.1
        assert report["limit_coefficients"]["lab_vs_quadrature_max_diff"] <= 1e-12
        for value in report["identity_residuals"].values():
            assert value <= 1e-12
        assert "quadrature_residuals" not in report

    def test_verify_operators_runs_the_hierarchy_on_uniform_atoms(self, tmp_path):
        evo = dict(BASE_EVOLUTION, profile={"name": "example3_atoms"})
        out = tmp_path / "out"
        assert main(["verify-operators", "--config", write_config(tmp_path, {"evolution": evo}),
                     "--out", str(out)]) == 0
        report = json.loads((out / "operator_report.json").read_text())
        assert 0.9 <= report["residual_scaling"]["slope"] <= 1.1
        assert report["limit_coefficients"]["lab_vs_quadrature_max_diff"] <= 1e-12
        for value in report["identity_residuals"].values():
            assert value <= 1e-12
        # the mixture law is not the uniform measure, whose closed forms these are
        assert "quadrature_residuals" not in report

    def test_atoms_of_full_mass_run(self, tmp_path):
        # two atoms of weight pi in the plane hold the whole law: q = 1
        atoms = [{"angles": [0.0], "weight": math.pi, "c": 1.0, "c1": 0.0},
                 {"angles": [math.pi], "weight": math.pi, "c": 1.0, "c1": 0.5}]
        document = {"evolution": dict(BASE_EVOLUTION, n_paths=50, profile={"atoms": atoms})}
        path = write_config(tmp_path, document)
        out = tmp_path / "out"
        assert main(["limit-coeffs", "--config", path, "--out", str(out)]) == 0
        payload = json.loads((out / "limit_coeffs.json").read_text())
        np.testing.assert_allclose(payload["drift"], [-0.25, 0.0], atol=1e-15)
        np.testing.assert_allclose(payload["A"], np.diag([1.0, 0.0]), atol=1e-15)
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        points = np.loadtxt(out / "endpoints.csv", delimiter=",", skiprows=1)[:, 1:]
        assert np.all(np.abs(points[:, 1]) <= 1e-12)  # every segment lies on the axis

    def test_unbalanced_law_exits_3_in_limit_coeffs(self, tmp_path, capsys):
        evo = dict(BASE_EVOLUTION, switching=two_point_law([0.6, 0.4]))
        exit_code, line = run_cli(tmp_path, capsys, "limit-coeffs", {"evolution": evo})
        assert exit_code == 3
        assert json.loads(line)["error"]["residual"][0] == pytest.approx(0.2, abs=1e-15)


PIN_STEP = {"name": "step_half_sphere", "c": 1.0, "c1": 1.0}
PIN_EVOLUTION = dict(BASE_EVOLUTION, epsilon=0.2, n_paths=300, seed=4)
PIN_CONFIGS = {
    "uniform_n3": dict(PIN_EVOLUTION, dimension=3, x0=[0.0, 0.0, 0.0], profile=PIN_STEP),
    "discrete_compass": dict(
        PIN_EVOLUTION, profile=PIN_STEP,
        switching={"kind": "discrete",
                   "angles": [[0.0], [0.5 * math.pi], [math.pi], [1.5 * math.pi]],
                   "probabilities": [0.3, 0.2, 0.3, 0.2]},
    ),
    "discrete_atoms": dict(
        PIN_EVOLUTION, profile={"name": "example3_atoms"},
        switching={"kind": "discrete", "angles": [[0.0], [math.pi], [0.5 * math.pi]],
                   "probabilities": [0.25, 0.25, 0.5]},
    ),
}


class TestArtifactBytes:
    """sha256 of artifacts under both switching laws (grid_resolution 8),
    recorded before the laws and their grids moved into revolve.limits; those
    of operator_report.json since the identity checks run on
    operator_lab.seeded_field, the finite law's moments.csv since stream
    layout 3 and the uniform law's since stream layout 4."""

    DIGESTS = {
        ("uniform_n3", "limit-coeffs", "limit_coeffs.json"):
            "b34a0edeed0db3ef2ee9054ab090650a5bcc70385133980d98ed166697677335",
        ("uniform_n3", "verify-operators", "operator_report.json"):
            "cf1a57271bd2ff40bfd31afbedfc4243c432e7716159bac44d48db2d4003b00a",
        ("uniform_n3", "report", "moments.csv"):
            "8f0240c636eeb803c2c3b15b5fc2ca13ecd30adbed4dd7ec610e568354150a11",
        ("discrete_compass", "limit-coeffs", "limit_coeffs.json"):
            "829cbe825187cd55f15bb7818837f8fa263152f8587cf2699816a47b94b23f76",
        ("discrete_compass", "verify-operators", "operator_report.json"):
            "835c73fed4448e061f2ae6afd85ba8921bc4738a5b3fef669bef5dcad86594f9",
        ("discrete_compass", "report", "moments.csv"):
            "4f4e71974ced006244cbc8585011bfaf388eba320c894facd72585a95b1a978c",
        ("discrete_atoms", "limit-coeffs", "limit_coeffs.json"):
            "95921556a96cc43f52fa84c81ce3b10f6bb66c1c55086c83fac5b933ae93912b",
        ("discrete_atoms", "verify-operators", "operator_report.json"):
            "d41c9c1793d42e0562c1aa46a156c36d7aeb0c901469782a5ec55f6eb42b4d4a",
    }

    @pytest.mark.parametrize("config, mode, artifact", sorted(DIGESTS),
                             ids=["-".join(key[:2]) for key in sorted(DIGESTS)])
    def test_artifact_keeps_its_bytes(self, tmp_path, config, mode, artifact):
        path = write_config(tmp_path, {"grid_resolution": 8, "evolution": PIN_CONFIGS[config]})
        out = tmp_path / "out"
        assert main([mode, "--config", path, "--out", str(out)]) == 0
        digest = hashlib.sha256((out / artifact).read_bytes()).hexdigest()
        assert digest == self.DIGESTS[config, mode, artifact]


class TestOperatorReportBytesAcrossSlabs:
    """sha256 of operator_report.json for the three n = 5 profiles of the
    operator benchmark at grid_resolution 16: 131072 nodes, as many as 16 of
    the node slabs in which an earlier solve built the second-order corrector.
    Recorded since the identity checks run on operator_lab.seeded_field,
    which moved identity_residuals and no other entry; the quadrature check
    sums Pi[s s^T] slab by slab, which moved pi_ss from 1.4e-16 to 2.5e-15."""

    EVOLUTION = dict(BASE_EVOLUTION, dimension=5, x0=[0.1, -0.2, 0.3, 0.0, 0.2], seed=11)
    DIGESTS = {
        "msre_const": ({"name": "msre_const", "c": 1.0},
                       "03414defa54054647ac838e5a501acae7090f7cd129c9d5dfa1f19c614293131"),
        "sin_theta1": ({"name": "sin_theta1"},
                       "6396ef802ef87aa85a4ddc9f15a3f04dbf4ee9d884c2b15c84f879a15010d7f3"),
        "step_half_sphere": ({"name": "step_half_sphere", "c": 1.0, "c1": 1.0},
                             "a00972796bc7237ddfbbf5264f9d057cc1c3c472be7020eba21c1942d03f3776"),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_report_keeps_its_bytes(self, tmp_path, name):
        profile, digest = self.DIGESTS[name]
        document = {"grid_resolution": 16, "evolution": dict(self.EVOLUTION, profile=profile)}
        out = tmp_path / "out"
        assert main(["verify-operators", "--config", write_config(tmp_path, document),
                     "--out", str(out)]) == 0
        assert hashlib.sha256((out / "operator_report.json").read_bytes()).hexdigest() == digest


class CountingPart:
    """A speed part that records each call in calls, then defers to part."""

    def __init__(self, part, calls):
        self.part, self.calls = part, calls

    def __call__(self, directions):
        self.calls.append(self)
        return self.part(directions)


class TestVerifyOperators:
    def test_msre_n3_report(self, tmp_path):
        evo = dict(
            BASE_EVOLUTION,
            dimension=3,
            x0=[0.0, 0.0, 0.0],
            profile={"name": "msre_const", "c": 1.0},
        )
        path = write_config(tmp_path, {"evolution": evo, "grid_resolution": 24})
        out = tmp_path / "out"
        assert main(["verify-operators", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "operator_report.json").read_text())
        for value in report["identity_residuals"].values():
            assert value < 1e-12
        diag = np.diag(report["limit_coefficients"]["diffusion"])
        np.testing.assert_allclose(diag, 1.0 / 3.0, atol=1e-8)
        assert 0.9 <= report["residual_scaling"]["slope"] <= 1.1

    def test_identity_residuals_pinned(self, tmp_path):
        # the identities on the config seed's seeded_field
        evo = dict(
            BASE_EVOLUTION,
            dimension=3,
            x0=[0.1, -0.2, 0.3],
            seed=11,
            profile={"name": "step_half_sphere", "c": 1.0, "c1": 1.0},
        )
        path = write_config(tmp_path, {"evolution": evo, "grid_resolution": 8})
        out = tmp_path / "out"
        assert main(["verify-operators", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "operator_report.json").read_text())
        assert report["identity_residuals"] == {
            "pi_idempotent": 0.0,
            "pi_q": 6.938893903907228e-18,
            "r0_q_identity": 6.938893903907228e-18,
        }

    def test_one_reading_for_the_lab_route_and_the_solve(self, tmp_path, monkeypatch):
        # limit_coefficients reads the profile for the independent check; the
        # lab route reads it once more and hands the first-order half to the solve
        calls = []

        def counting_profile(*args, **kwargs):
            profile = builtin_profile(*args, **kwargs)
            return replace(profile, continuous_c=CountingPart(profile.continuous_c, calls),
                           continuous_c1=CountingPart(profile.continuous_c1, calls))

        monkeypatch.setattr(cli, "builtin_profile", counting_profile)
        evo = dict(BASE_EVOLUTION, dimension=3, x0=[0.0] * 3,
                   profile={"name": "step_half_sphere", "c": 1.0, "c1": 1.0})
        path = write_config(tmp_path, {"evolution": evo, "grid_resolution": 8})
        assert main(["verify-operators", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 4 and calls[:2] == calls[2:]  # c and c1, twice

    def test_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # 20000 nodes: enough for OpenBLAS to split a dot product over the
        # nodes across threads, which would reorder the sum; 131072 nodes:
        # 16 node slabs, each with its own quadrature product
        evo = dict(
            BASE_EVOLUTION,
            dimension=5,
            x0=[0.1, -0.2, 0.3, 0.0, 0.2],
            seed=11,
            profile={"name": "step_half_sphere", "c": 1.0, "c1": 1.0},
        )
        src = str(Path(revolve.__file__).resolve().parents[1])
        for resolution in (10, 16):
            path = write_config(tmp_path, {"evolution": evo, "grid_resolution": resolution})
            reports = []
            for threads in ("1", "2"):
                out = tmp_path / f"r{resolution}-threads{threads}"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                    filter(None, [src, os.environ.get("PYTHONPATH")])))
                result = subprocess.run(
                    [sys.executable, "-m", "revolve.cli", "verify-operators", "--config", path,
                     "--out", str(out)],
                    env=env, capture_output=True, text=True, timeout=120,
                )
                assert result.returncode == 0, result.stderr
                reports.append((out / "operator_report.json").read_bytes())
            assert reports[0] == reports[1]

    def test_quadrature_residuals_see_a_coarse_grid(self, tmp_path):
        evo = dict(BASE_EVOLUTION, dimension=3, x0=[0.0] * 3)
        reports = []
        for resolution in (8, 16):
            out = tmp_path / f"r{resolution}"
            doc = {"evolution": evo, "grid_resolution": resolution}
            path = write_config(tmp_path, doc, name=f"r{resolution}.json")
            assert main(["verify-operators", "--config", path, "--out", str(out)]) == 0
            reports.append(json.loads((out / "operator_report.json").read_text()))
        coarse, fine = (r["quadrature_residuals"] for r in reports)
        assert coarse["pi_ss"] > 1e-9 and coarse["sin_powers"] > 1e-9
        assert max(fine.values()) <= 1e-14 and coarse["pi_s"] <= 1e-14
        for report in reports:
            assert max(report["identity_residuals"].values()) <= 1e-12


    def test_sweep_under_two_decades_falls_back_to_default(self, tmp_path, capsys):
        evo = dict(BASE_EVOLUTION, dimension=3, x0=[0.0] * 3)
        doc = {"evolution": evo, "grid_resolution": 8, "eps_sweep": [0.5, 0.2, 0.1, 0.05]}
        path, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["verify-operators", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "operator_report.json").read_text())
        default = [1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3]
        assert report["residual_scaling"]["eps"] == default
        warning = capsys.readouterr().err
        assert "[0.5, 0.2, 0.1, 0.05]" in warning and str(default) in warning

    def test_two_decade_sweep_runs_without_warning(self, tmp_path, capsys):
        evo = dict(BASE_EVOLUTION, dimension=3, x0=[0.0] * 3)
        doc = {"evolution": evo, "grid_resolution": 8, "eps_sweep": [0.5, 0.1, 0.02, 0.005]}
        path, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["verify-operators", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "operator_report.json").read_text())
        assert report["residual_scaling"]["eps"] == [0.5, 0.1, 0.02, 0.005]
        assert capsys.readouterr().err == ""


_real_batches = simulator._PathKernel.batches


def _batches_failing_in_last_block(kernel, start, stop):
    """_PathKernel.batches, out of memory in the block of the last path."""
    for batch in _real_batches(kernel, start, stop):
        if stop == kernel.config.n_paths:
            raise MemoryError("the last block fails")
        yield batch


_real_trajectories = simulator._PathKernel.trajectories


def _trajectories_failing_after_20_paths(kernel, start, stop):
    """_PathKernel.trajectories in batches of 10 paths, out of memory after
    the first 20 paths."""
    kernel._batch_paths = 10
    for batch in _real_trajectories(kernel, start, stop):
        if batch[0] == 20:
            raise MemoryError("the trajectory pass fails")
        yield batch


def format_17g_lines(block, label=""):
    """The CSV lines of block as format(x, ".17g") writes them, value by value."""
    lines = []
    for row in block.tolist():
        head = label % row[0] if label else ""
        lines.append(head + ",".join(format(x, ".17g") for x in row[bool(label):]) + "\n")
    return "".join(lines)


def ulps_around(x, ulps=40):
    """The doubles within ulps steps of the positive double x, x included."""
    return (np.array([x]).view(np.int64) + np.arange(-ulps, ulps + 1)).view(np.float64)


class TestCsvLines:
    # fallback values (±0, subnormals, |x| < 1e-4, |x| >= 1e16, inf, nan) between
    # values of the fast range, and digits that end in zeros
    EDGES = [-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1e16,
             1.7976931348623157e308, -1.7976931348623157e308,
             1.5, 0.0, 100.0, math.inf, 1e15, -math.nan, 0.00012, 9.9999999999999991e-05,
             1e-4, -2.5, 9999999999999998.0, 1e-5, 123456789012345.67, -math.inf, 0.5]

    @pytest.mark.parametrize("chunk_rows", [3, cli._CSV_CHUNK_ROWS])
    @pytest.mark.parametrize("label", ["%d,", "x%d,", ""])
    def test_lines_are_format_17g_per_value(self, monkeypatch, label, chunk_rows):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
        values = np.array(self.EDGES)
        block = np.column_stack([np.arange(1, values.size + 1), values, values[::-1]])
        expected = "".join(
            (label % int(row[0]) if label else format(row[0], ".17g") + ",")
            + ",".join(format(x, ".17g") for x in row[1:]) + "\n"
            for row in block.tolist()
        )
        assert "".join(cli._csv_lines(block, label)) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 3))
    def test_any_float_is_written_as_format_17g(self, values, cols):
        block = np.resize(np.array(values), (-(-len(values) // cols)) * cols).reshape(-1, cols)
        assert "".join(cli._csv_lines(block)) == format_17g_lines(block)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_ulps_around_powers_of_ten(self, sign):
        values = sign * np.concatenate([ulps_around(float(f"1e{k}")) for k in range(-6, 18)])
        block = values.reshape(-1, 1)
        assert "".join(cli._csv_lines(block)) == format_17g_lines(block)

    def test_half_way_ties_round_to_even(self):
        # odd multiples of 1/4 (1/2 above 2^51) in [10^15, 10^16), and 1 + odd
        # multiples of 2^-17: each has 18 significant digits, the last a 5
        odd = np.arange(1, 4001, 2)
        ties = np.concatenate([1e15 + odd / 4.0, 2.0**51 + odd / 2.0, 1.0 + odd * 2.0**-17])
        block = np.concatenate([ties, -ties]).reshape(-1, 2)
        assert "".join(cli._csv_lines(block)) == format_17g_lines(block)

    @pytest.mark.parametrize("chunk_rows", [3, cli._CSV_CHUNK_ROWS])
    def test_fallback_values_between_fast_ones_in_one_row(self, monkeypatch, chunk_rows):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
        row = [1.5, 0.0, 2.5e-3, math.nan, 1e-300, -3.25, 1e300, 7e15, -math.inf, 0.1]
        block = np.array([row, row[::-1], row[1:] + row[:1]])
        assert "".join(cli._csv_lines(block)) == format_17g_lines(block)

    @pytest.mark.parametrize("chunk_rows", [3, cli._CSV_CHUNK_ROWS])
    @pytest.mark.parametrize("label", ["%d,", "x%d,"])
    def test_labels_at_each_digit_count(self, monkeypatch, label, chunk_rows):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
        labels = [0, 9] + [n for j in range(1, 19) for n in (10**j - 1, 10**j)]
        labels += [2.5, -0.0, 2.0**63 - 1024, 2.0**63, 1e300, -1.0]  # the last three fall back
        block = np.column_stack([labels, np.arange(len(labels)) / 8.0])
        assert "".join(cli._csv_lines(block, label)) == format_17g_lines(block, label)

    def test_first_call_imports_nothing(self):
        # a forked pool worker formats its first block at once: the call
        # must not import a module (numpy loads some on a function's first call)
        script = (
            "import sys; import numpy as np; import revolve.cli as cli\n"
            "before = set(sys.modules)\n"
            "block = np.column_stack([np.arange(4), [0.5, -1e-7, np.nan, 3e20],"
            " [1.0, 2.0, 1e5, 0.25]])\n"
            "text = ''.join(cli._csv_lines(block, '%d,'))\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        src = str(Path(revolve.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestSimulate:
    def test_endpoints_csv_shape_and_reproducibility(self, tmp_path):
        path = write_config(tmp_path, {"evolution": dict(BASE_EVOLUTION)})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
        csv1 = (out1 / "endpoints.csv").read_bytes()
        csv2 = (out2 / "endpoints.csv").read_bytes()
        assert csv1 == csv2
        lines = csv1.decode().strip().splitlines()
        assert lines[0] == "path_index,x1,x2"
        assert len(lines) == 1 + BASE_EVOLUTION["n_paths"]

    def test_worker_counts_give_identical_bytes(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, {"evolution": dict(BASE_EVOLUTION, n_paths=200)})
        outputs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("REVOLVE_THREADS", workers)
            out = tmp_path / f"w{workers}"
            assert main(["simulate", "--config", path, "--out", str(out)]) == 0
            outputs.append((out / "endpoints.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path, {"evolution": dict(BASE_EVOLUTION)})
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2), "--seed", "8"]) == 0
        assert (out1 / "endpoints.csv").read_bytes() != (out2 / "endpoints.csv").read_bytes()

    def test_full_trajectories_flag(self, tmp_path):
        path = write_config(tmp_path, {"evolution": dict(BASE_EVOLUTION, n_paths=3)})
        out = tmp_path / "t"
        assert main(
            ["simulate", "--config", path, "--out", str(out), "--full-trajectories"]
        ) == 0
        lines = (out / "trajectories.csv").read_text().strip().splitlines()
        assert lines[0] == "path_index,t,x1,x2"
        assert len(lines) > 3

    # sha256 of trajectories.csv from one fresh simulate_path per path, the
    # way the dump was written before it shared one kernel across paths (the
    # finite law's since stream layout 3, the uniform law's since stream
    # layout 4); about 10300 segments each, so the paths span two batches
    TRAJECTORY_DIGESTS = {
        "uniform_initial_direction": (
            dict(
                BASE_EVOLUTION, dimension=3, epsilon=0.2, x0=[0.5, -0.25, 1.0], seed=11,
                profile={"name": "step_half_sphere", "c": 1.0, "c1": 1.0},
                initial_direction=[1.0, math.pi],
            ),
            "a2dad87e9b61f8fd1e4582545ccd0814124607a1e96d6a5d77965eb55047a2c5",
        ),
        "discrete": (
            dict(
                BASE_EVOLUTION, epsilon=0.2, seed=12,
                switching={
                    "kind": "discrete",
                    "angles": [[0.0], [0.5 * math.pi], [math.pi], [1.5 * math.pi]],
                    "probabilities": [0.1, 0.2, 0.3, 0.4],
                },
            ),
            "e7cf99927892dba57bd7c87b45bbd273084d477612caedd95737b40de711cc35",
        ),
    }

    @pytest.mark.parametrize("name", sorted(TRAJECTORY_DIGESTS))
    def test_full_trajectories_keep_their_bytes(self, tmp_path, name):
        evolution, digest = self.TRAJECTORY_DIGESTS[name]
        path = write_config(tmp_path, {"evolution": evolution})
        out = tmp_path / "t"
        assert main(
            ["simulate", "--config", path, "--out", str(out), "--full-trajectories"]
        ) == 0
        assert hashlib.sha256((out / "trajectories.csv").read_bytes()).hexdigest() == digest

    # sha256 of endpoints.csv as written by format(x, ".17g") per value (the
    # finite law's since stream layout 3, the uniform law's since stream
    # layout 4)
    ENDPOINT_DIGESTS = {
        "msre": (
            dict(BASE_EVOLUTION),
            "0dd588d6964156dc300cd3d98a5d99b19e1457a0f0ed9513758ae6a50ba95875",
        ),
        "step_n3": (
            dict(
                BASE_EVOLUTION, dimension=3, x0=[0.5, -0.25, 1e-7], seed=11,
                profile={"name": "step_half_sphere", "c": 1.0, "c1": 1.0},
            ),
            "e0804d6349eb3433d299620e75dc862b396b95849e2e3d2fe4d213c36378eca3",
        ),
        # 9001 paths: neither the 1-worker block nor the eight 2-worker
        # blocks end on a multiple of cli._CSV_CHUNK_ROWS
        "finite_law_atoms": (
            dict(
                BASE_EVOLUTION, epsilon=0.2, n_paths=9001,
                profile={"name": "example3_atoms"},
                switching={"kind": "discrete", "angles": [[0.0], [math.pi], [0.5 * math.pi]],
                           "probabilities": [0.25, 0.25, 0.5]},
            ),
            "abaa8b2d4b594818021ccda207b3ca276c49a969189b7151ba304c98191f951f",
        ),
    }

    @pytest.mark.parametrize("name, workers", [
        pytest.param(name, workers, id=name if workers == "1" else f"{name}-{workers}workers")
        for name in sorted(ENDPOINT_DIGESTS) for workers in ("1", "2")
    ])
    def test_endpoints_csv_keeps_its_bytes(self, tmp_path, monkeypatch, name, workers):
        monkeypatch.setenv("REVOLVE_THREADS", workers)
        evolution, digest = self.ENDPOINT_DIGESTS[name]
        path = write_config(tmp_path, {"evolution": evolution})
        out = tmp_path / "e"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "endpoints.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_block_leaves_no_endpoints_csv(self, tmp_path, capsys, monkeypatch, workers):
        # at 2 workers the last of eight blocks fails after the parent has
        # written the rows of the seven before it; the message names the
        # run's completed paths
        monkeypatch.setenv("REVOLVE_THREADS", workers)
        monkeypatch.setattr(simulator._PathKernel, "batches", _batches_failing_in_last_block)
        path = write_config(tmp_path, {"evolution": dict(BASE_EVOLUTION)})
        out = tmp_path / "f"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
        assert error["kind"] == "resource"
        assert error["message"].startswith("resource exhaustion (the last block fails)")
        done = 350 if workers == "2" else 0
        assert error["message"].endswith(f"completed paths [0, {done}) of [0, 400)")
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_failed_trajectory_pass_leaves_no_trajectories_csv(self, tmp_path, capsys,
                                                               monkeypatch):
        # endpoints.csv is complete before the trajectory pass starts; the
        # message names the file and the paths whose rows were written
        monkeypatch.setattr(simulator._PathKernel, "trajectories",
                            _trajectories_failing_after_20_paths)
        path = write_config(tmp_path, {"evolution": dict(BASE_EVOLUTION)})
        out = tmp_path / "f"
        assert main(["simulate", "--config", path, "--out", str(out), "--full-trajectories"]) == 1
        error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
        assert error["kind"] == "resource"
        assert error["message"] == ("resource exhaustion (the trajectory pass fails) writing "
                                    "trajectories.csv: completed paths [0, 20) of [0, 400)")
        assert sorted(p.name for p in out.iterdir()) == ["endpoints.csv", "manifest.json"]

    def test_manifest_written(self, tmp_path):
        path = write_config(tmp_path, {"evolution": dict(BASE_EVOLUTION)})
        out = tmp_path / "m"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "simulate"
        assert manifest["seed"] == 7
        assert manifest["config"]["evolution"]["n_paths"] == 400

    @pytest.mark.parametrize("mode", ["simulate", "limit-coeffs"])
    def test_manifest_records_the_stream_layout(self, tmp_path, mode):
        path = write_config(tmp_path, {"evolution": dict(BASE_EVOLUTION, n_paths=20)})
        out = tmp_path / "m"
        assert main([mode, "--config", path, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["stream_layout"] == 4


class TestConvergeAndReport:
    def test_converge_artifacts(self, tmp_path):
        doc = {
            "evolution": dict(BASE_EVOLUTION, n_paths=300),
            "eps_sweep": [0.5, 0.2, 0.1, 0.05],
            "grid_resolution": 16,
        }
        path = write_config(tmp_path, doc)
        out = tmp_path / "c"
        assert main(["converge", "--config", path, "--out", str(out)]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert len(payload["eps"]) == 4
        assert len(payload["ks_pvalues"]) == 4
        csv_lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "epsilon,metric,noise_floor,min_ks_pvalue"
        assert len(csv_lines) == 5

    def test_converge_rerun_is_byte_identical(self, tmp_path):
        doc = {
            "evolution": dict(BASE_EVOLUTION, n_paths=200),
            "eps_sweep": [0.5, 0.2, 0.1, 0.05],
            "grid_resolution": 16,
        }
        path = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["converge", "--config", path, "--out", str(out1)]) == 0
        assert main(["converge", "--config", path, "--out", str(out2)]) == 0
        for name in ("sweep.json", "sweep.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_converge_top_seed_wraps(self, tmp_path):
        # sweep point k runs at seed (seed + k) mod 2**64
        doc = {
            "evolution": dict(BASE_EVOLUTION, n_paths=200, seed=2**64 - 1),
            "eps_sweep": [0.5, 0.2, 0.1, 0.05],
            "grid_resolution": 16,
        }
        path = write_config(tmp_path, doc)
        out = tmp_path / "c"
        assert main(["converge", "--config", path, "--out", str(out)]) == 0
        assert len(json.loads((out / "sweep.json").read_text())["eps"]) == 4

    def test_report_artifacts(self, tmp_path):
        path = write_config(tmp_path, {"evolution": dict(BASE_EVOLUTION, n_paths=500)})
        out = tmp_path / "r"
        assert main(["report", "--config", path, "--out", str(out)]) == 0
        assert (out / "report.txt").exists()
        lines = (out / "moments.csv").read_text().strip().splitlines()
        assert lines[0].startswith("coordinate,mean,se_mean")
        assert len(lines) == 3
