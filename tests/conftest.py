import pathlib

import pytest

from lexsweep import FilterConfig, load_corpus
from lexsweep.corpus import Corpus

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.module.__name__ == "test_acceptance":
        label = getattr(item.function, "criterion", item.name)
        status = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {status}: {label}")


@pytest.fixture(scope="session")
def fixture_path() -> pathlib.Path:
    return DATA_DIR / "fixture_corpus.json"


@pytest.fixture(scope="session")
def best_f_tie_path() -> pathlib.Path:
    """Ten nouns counted 10 down to 1, w3 and w9 gold: best F is an exact tie."""
    return DATA_DIR / "best_f_tie_corpus.json"


@pytest.fixture(scope="session")
def fixture_corpus(fixture_path: pathlib.Path) -> Corpus:
    return load_corpus(fixture_path)


@pytest.fixture(scope="session")
def config() -> FilterConfig:
    return FilterConfig()
