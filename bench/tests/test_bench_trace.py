"""Trace accounting: span nesting, self times, and restoring the program."""

from time import perf_counter

import numpy as np
import pytest

import flexboom
import flexboom.calibration as calibration
import flexboom.cli as cli
import harness
import reference
import tracing
import workloads

# Names bound with ``from .x import f``: the trace must reach them too.
REBOUND = [(cli, "solve_equilibrium"), (cli, "frequency_response"),
           (cli, "passivity_check"), (cli, "run_simulation"), (cli, "fit_map"),
           (cli, "assemble_matrices"), (flexboom.passivity, "linearize"),
           (flexboom.passivity, "solve_equilibrium"), (flexboom.sim, "make_controller"),
           (flexboom.sim, "tension_for_deflection"), (flexboom, "linearize")]


def _snapshot():
    snap = {(mod.__name__, key): value for mod in tracing.flexboom_modules()
            for key, value in vars(mod).items()}
    snap[("MeasurementSet", "from_csv")] = calibration.MeasurementSet.__dict__["from_csv"]
    return snap


def _traced_pass(workload, tmp_path, seed=7):
    solver = reference.nominal_solver()
    inputs = workloads.make_inputs(workload, seed, workloads.TINY, solver.tip_at)
    files = workloads.prepare(inputs, tmp_path / "inputs", solver)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        start = perf_counter()
        with tracer.span(tracing.PASS_SPAN):
            workloads.run_pass(inputs, files, tmp_path / "out")
        wall = perf_counter() - start
    return tracer, wall


def _spans(tracer):
    dur, self_t, parent = tracing.self_times(tracer)
    names = [tracer.names[i] for i in tracer.name]
    return names, np.asarray(tracer.start), np.asarray(tracer.end), parent, self_t


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_spans_nest_and_self_times_fit_in_wall(workload, tmp_path):
    tracer, wall = _traced_pass(workload, tmp_path)
    names, start, end, parent, self_t = _spans(tracer)
    assert names[0] == tracing.PASS_SPAN and parent[0] == -1
    assert np.all(parent[1:] >= 0), "every span but the pass has a parent"
    p = parent[1:]
    assert np.all(start[p] <= start[1:]) and np.all(end[1:] <= end[p])
    assert np.all(self_t >= 0.0)
    assert self_t.sum() <= wall
    assert self_t.sum() == pytest.approx(end[0] - start[0], rel=1e-9)


def test_parents_follow_the_call_graph(tmp_path):
    expected = {
        "sweep": {("passivity.passivity_check", "passivity.frequency_response"),
                  ("cli.main", "passivity.frequency_response"),
                  ("passivity.uncertainty_sweep", "model.assemble_matrices"),
                  ("passivity.uncertainty_sweep", "linearization.linearize"),
                  (tracing.PASS_SPAN, "cli.main"), ("cli.main", "cli.load_config")},
        "closed_loop": {("sim.run_simulation", "control.controller"),
                        ("sim.run_simulation", "control.make_controller"),
                        ("sim.run_simulation", "sim.initial_state_from_deflection"),
                        ("sim.initial_state_from_deflection",
                         "equilibrium.tension_for_deflection"),
                        ("cli.main", "sim.scenario_suite"),
                        ("calibration.select_degree", "calibration.fit_map")},
        "equilibrium_map": {("equilibrium.tension_for_deflection",
                             "equilibrium.solve_equilibrium"),
                            ("equilibrium.deflection_curve",
                             "equilibrium.solve_equilibrium"),
                            (tracing.PASS_SPAN, "equilibrium.tension_for_deflection"),
                            ("cli.main", "calibration.MeasurementSet.from_csv")},
    }
    for workload, pairs in expected.items():
        tracer, _ = _traced_pass(workload, tmp_path / workload)
        names, _, _, parent, _ = _spans(tracer)
        seen = {(names[p], n) for n, p in zip(names, parent) if p >= 0}
        assert pairs <= seen, pairs - seen
        # The controller runs only inside a simulation.
        assert all(names[p] == "sim.run_simulation"
                   for n, p in zip(names, parent) if n == "control.controller")


def test_every_wrapped_attribute_is_restored():
    before = _snapshot()
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer) as patches:
        for owner, key in REBOUND:
            assert hasattr(getattr(owner, key), "bench_span"), (owner, key)
        assert hasattr(calibration.MeasurementSet.from_csv, "bench_span")
        wrapped = {(getattr(o, "__name__", ""), k) for o, k, _ in patches}
        assert ("flexboom.cli", "solve_equilibrium") in wrapped
        assert ("flexboom.sim", "make_controller") in wrapped
        assert ("flexboom.passivity", "linearize") in wrapped
        assert tracing.wrapped_names()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracing.wrapped_names() == []


def test_restored_after_an_error():
    before = _snapshot()
    with pytest.raises(KeyError):
        with tracing.instrumented(tracing.Tracer()):
            raise KeyError("boom")
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)


def test_untraced_pass_refuses_wrapped_code(tmp_path):
    solver = reference.nominal_solver()
    inputs = workloads.make_inputs("equilibrium_map", 7, workloads.TINY, solver.tip_at)
    ref = reference.build_reference(inputs, solver)
    files = workloads.prepare(inputs, tmp_path / "inputs", solver)
    with tracing.instrumented(tracing.Tracer()):
        with pytest.raises(RuntimeError, match="wrapped code"):
            harness._one_pass(inputs, files, tmp_path / "out", ref, None)
    record = harness._one_pass(inputs, files, tmp_path / "out", ref, None)
    assert not record.traced and record.check.failed_ops == 0


def test_errors_are_counted():
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        with pytest.raises(ValueError):
            flexboom.equilibrium.solve_equilibrium(None, float("nan"))
        assert cli.main(["simulate", "--scenario", "fig7a", "--config",
                         "/nonexistent/config.json"]) == 2
    metrics, _ = tracing.layer_metrics(tracer, passes=1)
    assert metrics["equilibrium.solve_equilibrium.errors"] == 1
    assert metrics["cli.main.errors"] == 1


def test_tail_percentile():
    assert tracing.tail(np.array([])) == (0.0, 0.0)
    assert tracing.tail(np.arange(5.0)) == (100.0, 4.0)
    pct, value = tracing.tail(np.arange(40.0))
    assert pct == 75.0 and value == 29.0    # ten samples (30..39) lie beyond it
