import dataclasses

import pytest

import flexboom as fb


@pytest.fixture(scope="session")
def params():
    return fb.BoomParams()


@pytest.fixture(scope="session")
def basis3():
    return fb.BasisSet.with_mode_count(3)


@pytest.fixture(scope="session")
def model3(params, basis3):
    return fb.assemble_matrices(params, basis3)


@pytest.fixture(scope="session")
def cantilever_model(params, basis3):
    """Model with spreader reactions disabled (tip moment only)."""
    return fb.assemble_matrices(dataclasses.replace(params, spreader_count=0), basis3)
