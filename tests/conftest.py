import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--full", action="store_true", default=False,
        help="include the large sweep points (80 and 100 nodes), which run "
             "without a pass/fail bound, and the golden lock under every other "
             "CPython 3.10+ that pyenv holds; these extend the suite by minutes")


@pytest.fixture(scope="session")
def full_mode(request):
    return request.config.getoption("--full")
