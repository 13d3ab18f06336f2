import json
from pathlib import Path

import pytest
from hypothesis import settings

# the same examples on every run (derandomize also turns off the example
# database), so a failure found once is found every time
settings.register_profile("licore", derandomize=True)
settings.load_profile("licore")

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def point_config() -> dict:
    return json.loads((FIXTURES / "config_point.json").read_text())


@pytest.fixture(scope="session")
def scan_dataset_path() -> Path:
    return FIXTURES / "absorption_synthetic.csv"


@pytest.fixture(scope="session")
def two_rows_path() -> Path:
    return FIXTURES / "absorption_two_rows.csv"
