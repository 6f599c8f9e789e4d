import json
import os
from pathlib import Path

import numpy as np
import pytest

import nctheta
from nctheta.config import load_config
from nctheta.embedding import EmbeddingKind, _paired_exponent, build_embedding
from nctheta.structures import make_complex_structure

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "nctheta" / "fixtures"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def pytest_addoption(parser):
    parser.addoption("--regen-golden", action="store_true", default=False,
                     help="rewrite golden regression files from the current"
                          " implementation")


@pytest.fixture(scope="session")
def regen_golden(request):
    return request.config.getoption("--regen-golden")


@pytest.fixture(scope="session")
def cli_env():
    """Environment for ``python -m nctheta`` subprocesses.

    The child runs in a temporary directory, so a relative ``PYTHONPATH``
    (``PYTHONPATH=src`` from a checkout) would resolve to nothing there.
    Put the directory holding the package this process imported first and
    make every other entry absolute, so the child runs the same source.
    """
    package_root = str(Path(nctheta.__file__).resolve().parent.parent)
    env = dict(os.environ)
    inherited = [str(Path(entry).resolve())
                 for entry in env.get("PYTHONPATH", "").split(os.pathsep) if entry]
    env["PYTHONPATH"] = os.pathsep.join([package_root] + inherited)
    return env


@pytest.fixture(scope="session")
def lattice_config_path():
    return FIXTURES / "canonical_lattice.json"


@pytest.fixture(scope="session")
def vector_config_path():
    return FIXTURES / "canonical_vector.json"


@pytest.fixture(scope="session")
def lattice_config(lattice_config_path):
    return load_config(lattice_config_path)


@pytest.fixture(scope="session")
def vector_config(vector_config_path):
    return load_config(vector_config_path)


@pytest.fixture(scope="session")
def lattice_emb():
    return build_embedding(EmbeddingKind.LATTICE, 0.5, m=[[1, 0], [0, 1]],
                           delta_hat=[[0.0, 0.7], [0.3, 0.0]])


@pytest.fixture(scope="session")
def vector_emb():
    return build_embedding(EmbeddingKind.VECTOR_SPACE, 0.5, 0.4)


@pytest.fixture(scope="session")
def lattice_structure(lattice_emb):
    return make_complex_structure(EmbeddingKind.LATTICE, 1j, 0.5,
                                  lattice_emb.theta34)


@pytest.fixture(scope="session")
def vector_structure():
    tau = [[0.5j, 0.0], [0.0, 0.4j]]
    return make_complex_structure(EmbeddingKind.VECTOR_SPACE, tau, 0.5, 0.4)


def load_golden(name: str):
    return json.loads((GOLDEN_DIR / name).read_text())


def save_golden(name: str, payload: dict):
    GOLDEN_DIR.mkdir(exist_ok=True)
    (GOLDEN_DIR / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def pairing_exponent_table(emb, left, right) -> np.ndarray:
    """:func:`_paired_exponent` of every left row with every right row: the
    (..., rows, cols) table of two index families of shape (..., rows, 4)
    and (..., cols, 4)."""
    return _paired_exponent(emb, np.asarray(left)[..., :, None, :],
                            np.asarray(right)[..., None, :, :])
