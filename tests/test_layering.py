"""The deterministic layers do not depend on the simulator, the switching
laws live in one of them, no module of the package imports scipy, and every
subcommand runs without it."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import revolve

PACKAGE = Path(revolve.__file__).resolve().parent
FORBIDDEN = {"simulator", "stats", "cli", "scipy"}


def imported_names(source: str) -> set[str]:
    """Every module a source imports, reduced to its first component.

    Modules of this package count by their own name, so that `from .stats
    import x`, `import revolve.stats` and `from revolve import stats` all
    give 'stats'.
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "revolve." if node.level > 0 else ""
            if node.module is None or node.module == "revolve":
                # from . import x / from revolve import x: each x is a module
                modules = [f"revolve.{alias.name}" for alias in node.names]
            else:
                modules = [base + node.module]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[0] == "revolve" and len(parts) > 1:
                parts = parts[1:]
            names.add(parts[0])
    return names


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .stats import fit_loglog", {"stats"}),
        ("from . import simulator", {"simulator"}),
        ("from revolve.stats import fit_loglog", {"stats"}),
        ("import revolve.simulator", {"simulator"}),
        ("from revolve import stats", {"stats"}),
        ("from scipy.stats import norm", {"scipy"}),
        ("import numpy as np", {"numpy"}),
    ],
)
def test_imported_names_sees_every_import_form(source, expected):
    assert imported_names(source) == expected


@pytest.mark.parametrize("module", ["sphere", "profiles", "limits", "operator_lab", "rates", "ks"])
def test_deterministic_layer_imports(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert imported_names(source) & FORBIDDEN == set()


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_no_module_imports_scipy(module):
    assert "scipy" not in imported_names((PACKAGE / f"{module}.py").read_text())


# The checks below run in a fresh interpreter: the test modules load scipy
# themselves, so this process cannot tell what revolve loads.


def run_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
        timeout=120,
    )


LOADED_SCIPY_MODULES = """
import sys
import {module}
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


@pytest.mark.parametrize("module", ["revolve", "revolve.cli"])
def test_import_loads_no_scipy(module):
    result = run_python("-c", LOADED_SCIPY_MODULES.format(module=module))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_runs_as_a_module_without_warnings():
    # runpy warns when the package's import has already loaded revolve.cli
    result = run_python("-W", "default", "-m", "revolve.cli", "--help")
    assert result.returncode == 0, result.stderr
    assert "Warning" not in result.stderr, result.stderr


# revolve.cli.main with every import of scipy or scipy.* failing
MAIN_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from revolve.cli import main
sys.exit(main(sys.argv[1:]))
"""

SMALL_CONFIG = {
    "grid_resolution": 8,
    "eps_sweep": [0.5, 0.1, 0.02, 0.005],
    "evolution": {
        "dimension": 2,
        "epsilon": 0.2,
        "horizon": 1.0,
        "x0": [0.0, 0.0],
        "n_paths": 50,
        "seed": 3,
        "profile": {"name": "msre_const", "c": 1.0},
    },
}


def run_without_scipy(tmp_path, mode, *flags):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    out = tmp_path / "out"
    args = (mode, "--config", str(config), "--out", str(out), *flags)
    return run_python("-c", MAIN_WITHOUT_SCIPY, *args), out


ARTIFACTS = {
    "simulate": ["endpoints.csv", "simulate_summary.json"],
    "limit-coeffs": ["limit_coeffs.json"],
    "verify-operators": ["operator_report.json"],
    "report": ["moments.csv", "report.txt"],
    "converge": ["sweep.json", "sweep.csv"],
}


def check_runs_without_scipy(tmp_path, mode):
    result, out = run_without_scipy(tmp_path, mode)
    assert result.returncode == 0, result.stdout + result.stderr
    for name in ["manifest.json", *ARTIFACTS[mode]]:
        assert (out / name).stat().st_size > 0, name


@pytest.mark.parametrize("mode", ["simulate", "limit-coeffs", "verify-operators"])
def test_subcommands_without_ks_tests_run_without_scipy(tmp_path, mode):
    check_runs_without_scipy(tmp_path, mode)


@pytest.mark.parametrize("mode", ["report", "converge"])
def test_ks_subcommands_run_without_scipy(tmp_path, mode):
    # their KS tests are revolve.ks
    check_runs_without_scipy(tmp_path, mode)


def test_full_trajectories_run_without_scipy(tmp_path):
    result, out = run_without_scipy(tmp_path, "simulate", "--full-trajectories")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = (out / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "path_index,t,x1,x2" and len(lines) > SMALL_CONFIG["evolution"]["n_paths"]


def test_cli_imports_no_private_simulator_name():
    # the CLI uses the simulator through its public functions only
    names = [
        alias.name
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module in ("simulator", "revolve.simulator")
        for alias in node.names
    ]
    assert "simulate_ensemble" in names
    assert [name for name in names if name.startswith("_")] == []


def test_switching_laws_are_defined_in_limits():
    # the laws, their validation and their grids live in the deterministic
    # layer; the simulator and the CLI use the same classes
    from revolve import cli, limits, simulator

    for name in ("UniformSphere", "DiscreteSwitching"):
        law = getattr(limits, name)
        assert law.__module__ == "revolve.limits"
        assert callable(law.grid) and callable(law.describe)
        assert getattr(simulator, name) is law and getattr(cli, name) is law
    for module, gone in [("limits", "finite_law_grid"), ("limits", "check_probabilities"),
                         ("stats", "grid_for_config")]:
        assert not hasattr(importlib.import_module(f"revolve.{module}"), gone)


# What only simulating needs: numpy.random (and, through secrets and hmac,
# OpenSSL's libcrypto), hashlib, the process pool and numpy.ma.
RUNTIME_MODULES = ["numpy.random", "hashlib", "_hashlib", "secrets",
                   "concurrent.futures.process", "multiprocessing", "numpy.ma"]
lazy_numpy = pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2, reason="numpy 1.x loads numpy.random and numpy.ma"
)

LOADED_RUNTIME_MODULES = """
import json, sys
import {module}
print(json.dumps(sorted(m for m in {modules!r} if m in sys.modules)))
"""


@lazy_numpy
@pytest.mark.parametrize("module", ["revolve", "revolve.cli"])
def test_import_loads_no_simulation_runtime(module):
    result = run_python("-c", LOADED_RUNTIME_MODULES.format(module=module,
                                                            modules=RUNTIME_MODULES))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


# revolve.cli.main, then the runtime modules loaded when load_config returned
# and at the end, as the last line
MAIN_REPORTING_MODULES = """
import json, sys
import revolve.cli as cli
modules, seen = {modules!r}, []
load_config = cli.load_config
def recording_load_config(*args, **kwargs):
    config = load_config(*args, **kwargs)
    seen.append(sorted(m for m in modules if m in sys.modules))
    return config
cli.load_config = recording_load_config
code = cli.main(sys.argv[1:])
print(json.dumps({{"code": code, "configured": seen[0],
                  "end": sorted(m for m in modules if m in sys.modules)}}))
"""


def run_reporting_modules(tmp_path, mode, threads="1", prelude=""):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    out = tmp_path / "out"
    script = prelude + MAIN_REPORTING_MODULES.format(modules=RUNTIME_MODULES)
    result = run_python("-c", script, mode, "--config", str(config), "--out", str(out),
                        REVOLVE_THREADS=threads)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["code"] == 0, result.stdout
    for name in ["manifest.json", *ARTIFACTS[mode]]:
        assert (out / name).stat().st_size > 0, name
    return report


@lazy_numpy
@pytest.mark.parametrize("mode", ["verify-operators", "limit-coeffs"])
def test_deterministic_subcommands_load_no_simulation_runtime(tmp_path, mode):
    report = run_reporting_modules(tmp_path, mode, threads="2")
    assert report["configured"] == [] and report["end"] == []


@lazy_numpy
@pytest.mark.parametrize("mode", ["verify-operators", "limit-coeffs"])
def test_deterministic_subcommands_run_without_numpy_random(tmp_path, mode):
    # every import of numpy.random fails; the call exits 0 and writes its artifacts
    run_reporting_modules(tmp_path, mode, prelude='import sys\nsys.modules["numpy.random"] = None\n')


@pytest.mark.parametrize("mode", ["simulate", "report", "converge"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulating_subcommands_load_the_runtime_in_set_up(tmp_path, mode, threads):
    # set-up loads it, so the paths' timing does not, and forked pool
    # workers start with it; the pool's module only for more than 1 worker
    configured = set(run_reporting_modules(tmp_path, mode, threads=threads)["configured"])
    assert {"numpy.random", "hashlib"} <= configured
    assert ("concurrent.futures.process" in configured) == (threads == "2")


def test_bad_revolve_threads_warns_once(tmp_path):
    # the set-up's resolve_workers call leaves the warning to the run's;
    # "-W always" shows a warning every time it is raised
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    result = run_python("-W", "always", "-m", "revolve.cli", "simulate", "--config", str(config),
                        "--out", str(tmp_path / "out"), REVOLVE_THREADS="two")
    assert result.returncode == 0, result.stderr
    assert result.stderr.count("ignoring non-integer REVOLVE_THREADS='two'") == 1, result.stderr


# simulate_ensemble called without the CLI, at 2 workers: whether the parent
# has numpy.random loaded when the pool starts (its forked workers then
# start with it)
POOL_STARTS_WITH_RUNTIME = """
import sys
import concurrent.futures.process as process
from revolve.profiles import builtin_profile
from revolve.simulator import EvolutionConfig, simulate_ensemble
loaded = []
start = process.ProcessPoolExecutor.__init__
def recording_init(self, *args, **kwargs):
    loaded.append("numpy.random" in sys.modules and "hashlib" in sys.modules)
    start(self, *args, **kwargs)
process.ProcessPoolExecutor.__init__ = recording_init
config = EvolutionConfig(dimension=2, epsilon=0.2, horizon=1.0, x0=[0.0, 0.0], n_paths=64,
                         seed=3, profile=builtin_profile("msre_const", 2, c=1.0))
simulate_ensemble(config, workers=2)
print(loaded)
"""


def test_pool_starts_with_the_runtime_loaded():
    result = run_python("-c", POOL_STARTS_WITH_RUNTIME)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[True]"
