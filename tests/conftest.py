import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
for _path in (TESTS, REPO / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO


@pytest.fixture(scope="session")
def corpus_root() -> Path:
    return REPO / "corpus"


@pytest.fixture(scope="session")
def bench_root() -> Path:
    return REPO / "corpus" / "bench"


@pytest.fixture(scope="session")
def default_config():
    from iccflow.taint import load_config

    return load_config(REPO / "corpus" / "sources_sinks.conf")
