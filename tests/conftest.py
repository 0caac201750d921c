from decimal import Decimal
from pathlib import Path

import pytest

from comptest import (StandModel, TestScript, TestSequence, TestStep,
                      compile, emit_xml, load_script, parse_connection_sheet,
                      parse_resource_sheet, parse_signal_sheet,
                      parse_status_sheet, parse_test_sheet)

# Library classes whose names look like test containers to pytest.
for _cls in (TestScript, TestSequence, TestStep):
    _cls.__test__ = False

DATA = Path(__file__).resolve().parent.parent / "data" / "interior_light"


@pytest.fixture(scope="session")
def demo_signals():
    return parse_signal_sheet((DATA / "signals.csv").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def demo_statuses():
    return parse_status_sheet((DATA / "statuses.csv").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def demo_test():
    return parse_test_sheet(
        (DATA / "test_interior_light.csv").read_text(encoding="utf-8"),
        name="interior_light")


@pytest.fixture(scope="session")
def demo_stand():
    resources = parse_resource_sheet(
        (DATA / "resources.csv").read_text(encoding="utf-8"))
    matrix = parse_connection_sheet(
        (DATA / "connections.csv").read_text(encoding="utf-8"))
    return StandModel(resources, matrix)


@pytest.fixture(scope="session")
def demo_env():
    return {"ubatt": Decimal("12.0")}


@pytest.fixture(scope="session")
def demo_script(demo_signals, demo_statuses, demo_test):
    return compile(demo_signals, demo_statuses, demo_test,
                   dut="interior_light_ecu")


@pytest.fixture(scope="session")
def demo_xml(demo_script):
    return emit_xml(demo_script)


@pytest.fixture(scope="session")
def demo_loaded(demo_xml):
    return load_script(demo_xml)
