"""Spans around the program's layers, recorded from outside the program.

``instrumented(tracer)`` replaces each traced function of ``flexboom`` by a
wrapper that records a span (name, parent, start, end, raised) and puts
every original back on exit.  A function is replaced under every name that
holds it in any ``flexboom`` module, so the names that ``cli``,
``passivity`` and ``sim`` rebind with ``from .x import f`` are traced too.
The controller closure that ``make_controller`` returns is wrapped as
``control.controller``.  Spans live in flat arrays in memory; the metrics
are derived once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

PASS_SPAN = "bench.pass"

# (module, attribute) of every traced function; the span is "module.attribute".
TRACED = (
    ("cli", "main"),
    ("cli", "load_config"),
    ("model", "assemble_matrices"),
    ("equilibrium", "solve_equilibrium"),
    ("equilibrium", "tension_for_deflection"),
    ("equilibrium", "deflection_curve"),
    ("linearization", "linearize"),
    ("passivity", "frequency_response"),
    ("passivity", "passivity_check"),
    ("passivity", "uncertainty_sweep"),
    ("passivity", "mode_count_sweep"),
    ("control", "make_controller"),
    ("sim", "scenario_suite"),
    ("sim", "initial_state_from_deflection"),
    ("sim", "run_simulation"),
    ("calibration", "MeasurementSet.from_csv"),
    ("calibration", "fit_map"),
    ("calibration", "select_degree"),
)
CONTROLLER_SPAN = "control.controller"
LAYER_SPANS = tuple(f"{m}.{a}" for m, a in TRACED) + (CONTROLLER_SPAN,)


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack: list[int] = []
        self.rk4_steps = 0
        self.grid_points = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        self.raised.append(0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, raised: bool = False) -> None:
        self.end[idx] = perf_counter()
        if raised:
            self.raised[idx] = 1
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        except BaseException:
            self.close(idx, True)
            raise
        self.close(idx)

    def wrap(self, name: str, func, after=None, failed=None):
        """Wrapper recording one span per call of ``func``.

        ``after(args, result)`` runs once the span is closed and may replace
        the result; ``failed(result)`` marks a returned result as an error.
        """
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                close(idx, True)
                raise
            close(idx, failed is not None and failed(result))
            return result if after is None else after(args, result)

        traced.bench_span = name
        return traced


def flexboom_modules() -> list:
    return [sys.modules[k] for k in sorted(sys.modules)
            if k == "flexboom" or k.startswith("flexboom.")]


def _hooks(tracer: Tracer) -> dict:
    def count_grid(args, fr):
        tracer.grid_points += fr.omega.size
        return fr

    def count_steps(args, result):
        scenario = args[0]
        if result.divergence_time is None:
            tracer.rk4_steps += int(round(scenario.duration / scenario.dt))
        else:
            tracer.rk4_steps += int(round(result.divergence_time / scenario.dt))
        return result

    def wrap_controller(args, controller):
        return tracer.wrap(CONTROLLER_SPAN, controller)

    return {
        "cli.main": {"failed": lambda code: code != 0},
        "passivity.frequency_response": {"after": count_grid},
        "sim.run_simulation": {"after": count_steps},
        "control.make_controller": {"after": wrap_controller},
    }


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Trace every function in TRACED for the duration of the block."""
    hooks = _hooks(tracer)
    patches: list[tuple[object, str, object]] = []
    try:
        modules = flexboom_modules()
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            module = importlib.import_module(f"flexboom.{module_name}")
            if "." in attr:     # a classmethod, e.g. MeasurementSet.from_csv
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapped = classmethod(tracer.wrap(name, original.__func__,
                                                  **hooks.get(name, {})))
                patches.append((cls, method, original))
                setattr(cls, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(name, original, **hooks.get(name, {}))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        yield patches
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def wrapped_names() -> list[str]:
    """Every ``flexboom`` attribute that currently holds a span wrapper."""
    found = []
    for mod in flexboom_modules():
        for key, value in vars(mod).items():
            if hasattr(value, "bench_span"):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    func = getattr(member, "__func__", member)
                    if hasattr(func, "bench_span"):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


def assert_unwrapped() -> None:
    """Raise if any traced function is still wrapped (untraced runs call this)."""
    found = wrapped_names()
    if found:
        raise RuntimeError(f"untraced pass would measure wrapped code: {found}")


# ---------------------------------------------------------------------------
# metrics


def self_times(tracer: Tracer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Span durations, self times (duration minus direct children) and parents."""
    dur = np.frombuffer(tracer.end, dtype=float) - np.frombuffer(tracer.start, dtype=float)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur, dur - child, parent


def tail(samples: np.ndarray) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With ten samples or fewer there is no such percentile; the maximum is
    returned with percentile 100.
    """
    n = samples.size
    if n == 0:
        return 0.0, 0.0
    ordered = np.sort(samples)
    if n <= 10:
        return 100.0, float(ordered[-1])
    return 100.0 * (n - 10) / n, float(ordered[n - 11])


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, and the tail percentile of each.

    Counts and self times are divided by the number of traced passes, so
    every pass contributes the same work whatever the machine's speed.
    """
    dur, self_t, parent = self_times(tracer)
    names = np.frombuffer(tracer.name, dtype=np.int16)
    raised = np.frombuffer(tracer.raised, dtype=np.int8)
    metrics, tails = {}, {}
    masks = {}
    for span in LAYER_SPANS:
        nid = tracer._ids.get(span, -1)
        mask = names == nid
        masks[span] = mask
        pct, tail_s = tail(dur[mask])
        metrics[f"{span}.calls"] = int(mask.sum()) / passes
        metrics[f"{span}.self_s"] = float(self_t[mask].sum()) / passes
        metrics[f"{span}.p50_us"] = float(np.median(dur[mask])) * 1e6 if mask.any() else 0.0
        metrics[f"{span}.tail_us"] = tail_s * 1e6
        metrics[f"{span}.errors"] = int(raised[mask].sum()) / passes
        tails[span] = (pct, int(mask.sum()))

    def under(child_span: str, parent_span: str) -> int:
        m = masks[child_span]
        return int(np.sum(masks[parent_span][parent[m]] & (parent[m] >= 0)))

    inversions = masks["equilibrium.tension_for_deflection"].sum()
    solves = under("equilibrium.solve_equilibrium", "equilibrium.tension_for_deflection")
    fr_calls = masks["passivity.frequency_response"].sum()
    steps = tracer.rk4_steps
    metrics.update({
        "equilibrium.solves_per_inversion": solves / inversions if inversions else 0.0,
        "passivity.grid_points": tracer.grid_points / passes,
        "passivity.us_per_grid_point": (
            float(self_t[masks["passivity.frequency_response"]].sum())
            / tracer.grid_points * 1e6 if tracer.grid_points else 0.0),
        "passivity.redundant_responses": (
            fr_calls - under("passivity.frequency_response", "passivity.passivity_check"))
        / passes,
        "sim.rk4_steps": steps / passes,
        "sim.us_per_rhs": (float(self_t[masks["sim.run_simulation"]].sum())
                           / (4 * steps) * 1e6 if steps else 0.0),
        "control.evals_per_step": (masks[CONTROLLER_SPAN].sum() / steps
                                   if steps else 0.0),
    })
    return metrics, tails
