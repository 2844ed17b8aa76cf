"""Each reference check passes on the program's output and fails on a wrong one."""

import json

import pytest

import reference
import workloads


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One tiny pass of each workload, with its reference, keyed by workload."""
    solver = reference.nominal_solver()
    out = {}
    for workload in workloads.WORKLOADS:
        inputs = workloads.make_inputs(workload, 5, workloads.TINY, solver.tip_at)
        ref = reference.build_reference(inputs, solver)
        work = tmp_path_factory.mktemp(workload)
        files = workloads.prepare(inputs, work / "inputs", solver)
        ops = workloads.run_pass(inputs, files, work / "out")
        out[workload] = (ops, ref)
    return out


def _op(ops, kind):
    return next(op for op in ops if op.kind == kind)


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    original = path.read_text()
    path.write_text(json.dumps(data))
    return original


def _edit_csv(path, row, col, value):
    original = path.read_text()
    lines = original.splitlines()
    fields = lines[row].split(",")
    fields[col] = value(fields[col])
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_program_output_passes(passes, workload):
    ops, ref = passes[workload]
    check = reference.check_pass(ops, ref)
    assert check.failures == [] and check.failed_ops == 0
    assert check.work > 0


def test_shifted_final_state_fails(passes):
    ops, ref = passes["closed_loop"]
    for kind in ("simulate-fig7a", "simulate-custom"):
        op = _op(ops, kind)
        path = op.out / "summary.json"
        original = _edit_json(path, lambda s: s.update(final_tip_m=s["final_tip_m"] + 1e-6))
        try:
            failures, _ = reference.check_simulation(op, ref)
        finally:
            path.write_text(original)
        assert any("final tip" in f for f in failures), failures


def test_unexpected_status_fails(passes):
    ops, ref = passes["closed_loop"]
    op = _op(ops, "simulate-fig8")
    path = op.out / "summary.json"
    original = _edit_json(path, lambda s: s.update(status="diverged",
                                                   divergence_time_s=0.05))
    try:
        failures, steps = reference.check_simulation(op, ref)
    finally:
        path.write_text(original)
    assert any("status" in f for f in failures)
    assert steps == 50


def test_flipped_sweep_verdict_fails(passes):
    ops, ref = passes["sweep"]
    op = _op(ops, "bode-uncertainty")
    path = op.out / "sweep_uncertainty.csv"
    original = _edit_csv(path, 3, 5, lambda v: "not-passive" if v == "passive" else "passive")
    try:
        failures, _ = reference.check_bode(op, ref)
    finally:
        path.write_text(original)
    assert any("verdict" in f for f in failures), failures


def test_flipped_nominal_verdict_fails(passes):
    ops, ref = passes["sweep"]
    op = _op(ops, "bode-modes")
    path = op.out / "summary.json"
    original = _edit_json(path, lambda s: s.update(nominal_verdict="not-passive"))
    try:
        failures, _ = reference.check_bode(op, ref)
    finally:
        path.write_text(original)
    assert any("nominal verdict" in f for f in failures)


def test_wrong_bode_point_fails(passes):
    ops, ref = passes["sweep"]
    op = _op(ops, "bode-modes")
    path = op.out / f"bode_teq_{op.arg:g}.csv"
    original = _edit_csv(path, 17, 2, lambda v: repr(float(v) * (1 + 1e-4)))
    try:
        failures, _ = reference.check_bode(op, ref)
    finally:
        path.write_text(original)
    assert any("dense solve" in f for f in failures), failures


def test_wrong_curve_point_fails(passes):
    ops, ref = passes["equilibrium_map"]
    op = _op(ops, "equilibrium")
    path = op.out / "equilibrium_curve.csv"
    for col in (1, 3):
        original = _edit_csv(path, 10, col, lambda v: repr(float(v) * (1 + 1e-6)))
        try:
            failures, _ = reference.check_curve(op, ref)
        finally:
            path.write_text(original)
        assert any("off the raw" in f for f in failures), failures


def test_wrong_inversion_fails(passes):
    ops, ref = passes["equilibrium_map"]
    op = _op(ops, "inversion")
    assert reference.check_inversion(op, ref) == []
    wrong = workloads.Op("inversion", 0, arg=op.arg, value=op.value * (1 + 1e-4))
    assert reference.check_inversion(wrong, ref)


def test_wrong_fit_fails(passes):
    for workload in ("closed_loop", "equilibrium_map"):
        ops, ref = passes[workload]
        op = _op(ops, "fit")
        path = op.out / "fit_map.json"

        def nudge(fragment):
            coeffs = fragment["reference"]["map_coefficients"]
            coeffs[-1] += 1e-4
        original = _edit_json(path, nudge)
        try:
            failures = reference.check_fit(op, ref.data["fit"])
        finally:
            path.write_text(original)
        assert any("fitted map" in f for f in failures), failures


def test_failed_command_counts_as_failed_operation(passes):
    ops, ref = passes["equilibrium_map"]
    broken = list(ops)
    broken[0] = workloads.Op("equilibrium", 1, out=ops[0].out)
    check = reference.check_pass(broken, ref)
    assert check.failed_ops == 1
    assert any("exit code 1" in f for f in check.failures)
