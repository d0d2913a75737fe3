"""Config fuzzer: every config, however broken, runs or exits 2 under a
dotted path.

Each example takes one base config, replaces one or two of its nodes (a
scalar, a vector, a matrix or a whole section) with values from a fixed
menu, and runs ``main()`` in process on the four config subcommands.
"""

import contextlib
import copy
import io
import json
import os
import re
import tempfile

from hypothesis import example, given, settings, strategies as st

from sublorentz.cli import main
from sublorentz.presets import PRESETS

SMALL = {"segments": 4, "samples": 20,
         "solver": {"restarts": 1, "max_iter": 2, "inner_iter": 2}}

#: the sections each subcommand needs; a missing one is named on exit 2
REQUIRED = {"check-structure": {"cone", "antinorm"},
            "check-timeform": {"model", "timeform"},
            "reach": {"model", "cone", "endpoints"},
            "solve": {"model", "cone", "antinorm", "endpoints"}}


def _base(config):
    return {**copy.deepcopy(config), **copy.deepcopy(SMALL)}


BASES = {
    **{name: _base({**preset, "preset": name}) for name, preset in PRESETS.items()},
    # the benchmark's heisenberg-polyhedral solve
    "heisenberg-polyhedral": _base({
        "version": 1, "model": {"kind": "carnot", "builtin": "heisenberg"},
        "cone": {"kind": "polyhedral", "generators": [[1.0, 1.0], [1.0, -1.0]]},
        "antinorm": {"kind": "min_of_linear", "family": [[1.0, 0.5], [1.0, -0.5]]},
        "endpoints": {"x0": [0.0, 0.0, 0.0], "x1": [2.0, 0.5, 0.1]}}),
    # the console-script check's linear image, with a model and endpoints
    "linear-image": _base({
        "version": 1, "model": {"kind": "abelian", "dim": 2},
        "cone": {"kind": "linear_image", "map": [[3.0, 0.4], [0.5, 1.0]],
                 "base": {"kind": "polyhedral", "generators": [[1.0, 0.2], [1.0, 1.0]]}},
        "antinorm": {"kind": "min_of_linear", "family": [[1.0, 0.0]]},
        "endpoints": {"x0": [0.0, 0.0], "x1": [3.0, 1.0]}}),
}

MENU = [
    # wrong types
    "x", True, None, {}, {"kind": "nope"},
    # empty, ragged and non-finite
    [], [[]], [[1.0, 2.0], [3.0]], float("nan"), float("inf"), float("-inf"),
    # edge numbers
    0, -1, 1e300, -1e300, 1e-300, 1e308, -1e308,
    # zero and singular matrices
    [[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]],
    [[0.0] * 3] * 3, [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]],
    # huge endpoint vectors
    [1e308, 0.0], [-1e308, 3.0], [1e308, 1.0], [-1e308, 0.0, 0.0], [1e300] * 5,
]


def _paths(node, prefix=()):
    """The path of every node below ``node``: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replace(config, path, value):
    for key in path[:-1]:
        config = config[key]
    config[path[-1]] = value


@st.composite
def mutated_configs(draw):
    config = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(config))))
        _replace(config, path, copy.deepcopy(draw(st.sampled_from(MENU))))
    return config


def _with(name, **changes):
    """BASES[name] with the given nodes replaced; a key is the path joined by
    '__', as endpoints__x0."""
    config = copy.deepcopy(BASES[name])
    for key, value in changes.items():
        _replace(config, tuple(int(k) if k.isdigit() else k for k in key.split("__")),
                 value)
    return config


def _refuse_constant(token):
    raise AssertionError(f"report.json holds the non-standard token {token}")


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(config=mutated_configs())
# four configs that ended in a traceback: a start beyond the float range that
# the membership test let through, and x0^-1 x1 overflowing
@example(config=_with("hyperbolic", endpoints__x0=[1e308, 1.0]))
@example(config=_with("linear-image", cone__base__generators__0__1=-1,
                      endpoints__x0__0=1e300))
@example(config=_with("minkowski11", endpoints__x1=[-1e308, 3.0]))
@example(config=_with("heisenberg-polyhedral", endpoints__x0=[-1e308, 0.0, 0.0]))
def test_every_config_runs_or_exits_two(config):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        for subcommand, required in REQUIRED.items():
            out_dir = os.path.join(work, subcommand)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main([subcommand, "--config", path, "--out", out_dir])
            assert code in (0, 1, 2), (subcommand, code)
            if code == 2:
                match = re.match(r"config error: ([^.:\s]+)[^:\s]*: ", err.getvalue())
                assert match, (subcommand, err.getvalue())
                assert match.group(1) in set(config) | required, \
                    (subcommand, err.getvalue())
            report = os.path.join(out_dir, "report.json")
            if os.path.exists(report):
                with open(report, encoding="utf-8") as fh:
                    json.load(fh, parse_constant=_refuse_constant)
