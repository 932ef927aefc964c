"""Qualitative belief-state planning toolkit for the moving-blocks problem.

Importing the package loads none of its submodules: each public name below
imports its submodule on first use, so that a command which needs only the
domain parser does not pay for the planner or the world simulator.
"""

from importlib import import_module

_SOURCES = {
    "sitcalc": ("S0", "Action", "Situation", "do", "format_plan", "parse_plan", "precedes",
                "precedes_eq", "predecessor"),
    "beliefs": ("DEFAULT_SCALE", "BeliefState", "ColumnBelief", "GoalSpec", "NotPossibleError",
                "Quality", "QualityScale", "apply_addition", "apply_move", "apply_removal",
                "classify", "initial_beliefs", "observe", "poss", "uniform_scale"),
    "qbdl": ("DomainSpec", "ParseError", "parse_domain", "serialize_domain"),
    "planner": ("CLOSEST", "EXACT", "LimitsError", "PlanOutcome", "PlannerConfig", "distance",
                "goal_satisfied", "plan", "simulate_beliefs"),
    "worldsim": ("ExperimentParams", "Report", "TrajectoryTable", "WorldState", "evaluate",
                 "execute", "format_trajectory", "random_scenario", "report_json",
                 "run_experiment", "run_scenario", "trajectory_table"),
}
# Public names that differ from their name in the submodule.
_RENAMED = {"parse_domain": "parse", "serialize_domain": "serialize"}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), _RENAMED.get(name, name))
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
