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
