import os
import subprocess
import sys
from pathlib import Path

import flexboom as fb

MODULES = (fb.model, fb.equilibrium, fb.linearization, fb.passivity, fb.control,
           fb.sim, fb.calibration)


def test_package_exports_the_module_lists_once():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert fb.__all__ == ["__version__", *names]
    assert len(fb.__all__) == 56
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fb, name) is getattr(module, name)


def test_blend_helpers_are_folded_into_the_ramp():
    for name in ("quintic_blend", "quintic_blend_rate", "zero_spreader_matrix",
                 "scaling_factory", "modal_acceleration", "InconsistentTests"):
        assert name not in fb.__all__
        assert not any(hasattr(module, name) for module in (fb, *MODULES))


# Run in a fresh interpreter, so no earlier import has loaded scipy.
COLD_PATH = """\
import sys
from pathlib import Path
import flexboom as fb
from flexboom import cli
model = fb.assemble_matrices(fb.BoomParams(), fb.BasisSet.with_mode_count(3))
fb.solve_equilibrium(model, 1.0)
fb.deflection_curve(model, t_max=1.0, samples=5)
model.critical_tension
out = Path(sys.argv[1])
data = out / "data.csv"
data.write_text("torque_N,deflection_m\\n" + "".join(
    f"{t},{1.5 * t + 0.4 * t * t}\\n" for t in (0.2, 0.4, 0.6, 0.8, 1.0)))
assert cli.main(["equilibrium", "--out", str(out / "curve")]) == 0
assert cli.main(["equilibrium", "--tension", "1.0", "--out", str(out / "point")]) == 0
assert cli.main(["fit", str(data), "--out", str(out / "fit")]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
fb.linearize(model, fb.solve_equilibrium(model, 1.0)).rate_schur
print("scipy.linalg" in sys.modules)
"""


def test_model_and_equilibrium_commands_load_no_scipy(tmp_path):
    # scipy.linalg loads when a plant is first built, not with the package:
    # building a model, mapping equilibria and fitting run on numpy alone.
    src = str(Path(fb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", COLD_PATH, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-2:] == ["[]", "True"]
