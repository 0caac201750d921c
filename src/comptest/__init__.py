"""Stand-independent component-test toolchain.

Authoring happens in three CSV sheets (signals, statuses, test steps);
``compile`` lowers them into a portable XML test script; ``load_script``
reads such a script back and ``execute`` interprets it on a virtual test
stand with resource allocation against a simulated device under test.
"""

__version__ = "0.1.0"

from .compiler import (MethodInvocation, TestScript, compile, emit_xml,
                       lower_status)
from .dut import (DUT_REGISTRY, DutModel, InteriorLightConfig,
                  InteriorLightDut, build_dut)
from .errors import (AllocationError, ComptestError, DutError, EvalError,
                     ExprError, ScriptError, SheetError, ValidationFailed)
from .expr import eval_expr, parse_expr, render_expr
from .ingest import (CsvDialect, parse_connection_sheet, parse_resource_sheet,
                     parse_signal_sheet, parse_status_sheet, parse_test_sheet,
                     serialize_connection_sheet, serialize_resource_sheet,
                     serialize_signal_sheet, serialize_status_sheet,
                     serialize_test_sheet)
from .runner import (Abort, RunReport, execute, report_to_json,
                     report_to_text)
from .script import load_script
from .sheets import (INF, SignalDef, SignalTable, StatusDef, StatusTable,
                     TestSequence, TestStep, validate_sheets)
from .stand import (Allocation, Binding, ConnectionMatrix, Connector,
                    Requirement, ResourceDef, ResourceTable, StandModel,
                    allocate, parse_connector)

__all__ = [
    "__version__", "INF",
    "SignalDef", "SignalTable", "StatusDef", "StatusTable", "TestStep",
    "TestSequence", "validate_sheets",
    "CsvDialect", "parse_signal_sheet", "parse_status_sheet",
    "parse_test_sheet", "parse_resource_sheet", "parse_connection_sheet",
    "serialize_signal_sheet", "serialize_status_sheet", "serialize_test_sheet",
    "serialize_resource_sheet", "serialize_connection_sheet",
    "parse_expr", "eval_expr", "render_expr",
    "MethodInvocation", "TestScript", "lower_status", "compile", "emit_xml",
    "load_script",
    "Connector", "parse_connector", "ResourceDef", "ResourceTable",
    "ConnectionMatrix", "StandModel", "Requirement", "Binding", "Allocation",
    "allocate",
    "DutModel", "InteriorLightConfig", "InteriorLightDut",
    "build_dut", "DUT_REGISTRY",
    "Abort", "RunReport", "execute", "report_to_json", "report_to_text",
    "ComptestError", "SheetError", "ValidationFailed", "ExprError",
    "EvalError", "ScriptError", "AllocationError", "DutError",
]
