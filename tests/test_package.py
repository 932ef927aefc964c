"""The package's public names, and the submodules each CLI command loads."""

import os
import subprocess
import sys
from importlib import import_module

import pytest

import qbplan
from conftest import SRC, scenario
from qbplan.cli import build_parser
from qbplan.planner import PlannerConfig

# Every name `qbplan` exports, by the submodule that defines it.
EXPORTS = {
    "sitcalc": "S0 Action Situation do format_plan parse_plan precedes precedes_eq predecessor",
    "beliefs": "DEFAULT_SCALE BeliefState ColumnBelief GoalSpec NotPossibleError Quality "
               "QualityScale apply_addition apply_move apply_removal classify initial_beliefs "
               "observe poss uniform_scale",
    "qbdl": "DomainSpec ParseError parse_domain serialize_domain",
    "planner": "CLOSEST EXACT LimitsError PlanOutcome PlannerConfig distance goal_satisfied "
               "plan simulate_beliefs",
    "worldsim": "ExperimentParams Report TrajectoryTable WorldState evaluate execute "
                "format_trajectory random_scenario report_json run_experiment run_scenario "
                "trajectory_table",
}
RENAMED = {"parse_domain": "parse", "serialize_domain": "serialize"}
NAMES = [name for names in EXPORTS.values() for name in names.split()]

# A child started as an installed console script starts the CLI, which then
# prints the qbplan submodules it loaded as its last line on stderr.
LAUNCH = (
    "import sys; from qbplan.cli import main; code = main(); "
    "print(*sorted(m for m in sys.modules if m.startswith('qbplan.')), file=sys.stderr); "
    "sys.exit(code)"
)


def test_every_public_name_is_its_submodules_object():
    for module, names in EXPORTS.items():
        source = import_module(f"qbplan.{module}")
        for name in names.split():
            namespace = {}
            exec(f"from qbplan import {name}", namespace)
            assert namespace[name] is getattr(source, RENAMED.get(name, name)), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from qbplan import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)
    assert sorted(qbplan.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(qbplan))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qbplan.no_such_name


def test_the_plan_command_defaults_to_the_planners_depth_bound():
    assert build_parser().parse_args(["plan", "x.qbd"]).max_depth == PlannerConfig.max_depth


def loaded_by(*argv):
    """The exit code and the qbplan submodules a CLI child loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCH, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, set(proc.stderr.splitlines()[-1].split())


def test_each_command_loads_only_the_submodules_it_runs(tmp_path):
    bad = tmp_path / "bad.qbd"
    bad.write_text("columns: five\n")
    heavy = {"qbplan.planner", "qbplan.certificate", "qbplan.worldsim", "qbplan.sitcalc"}
    for argv, exit_code in ((["validate", scenario("borderline")], 0), (["validate", str(bad)], 2)):
        code, modules = loaded_by(*argv)
        assert code == exit_code
        assert "qbplan.qbdl" in modules
        assert not modules & heavy, argv
    code, modules = loaded_by("trace", "--blocks", "5", "--steps", "-3")
    assert code == 0
    assert "qbplan.worldsim" in modules
    assert not modules & (heavy - {"qbplan.worldsim"})
    code, modules = loaded_by("plan", "--json", scenario("borderline"))
    assert code == 0
    assert "qbplan.planner" in modules
    assert "qbplan.worldsim" not in modules
