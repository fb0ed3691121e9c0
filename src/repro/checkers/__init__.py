"""Client checkers built on the analysis results."""

from repro.checkers.divzero import (
    DivReport,
    DivVerdict,
    check_divisions,
    div_alarms,
)
from repro.checkers.nullderef import (
    NullReport,
    NullVerdict,
    check_null_derefs,
    null_alarms,
)
from repro.checkers.overrun import AccessReport, Verdict, alarms, check_overruns

#: checker name → entry point (all take ``(program, result)``)
CHECKERS = {
    "overrun": check_overruns,
    "divzero": check_divisions,
    "nullderef": check_null_derefs,
}

#: checker name → the filter keeping the reports whose verdict is an alarm
ALARMS = {
    "overrun": alarms,
    "divzero": div_alarms,
    "nullderef": null_alarms,
}


def run_checker(name: str, program, result, telemetry=None) -> list:
    """Dispatch one checker by name, traced as a ``checkers`` phase span.

    The span carries the checker name and report count; the registry's
    ``checkers.reports`` counter accumulates across checkers so the phase
    report shows one total.
    """
    from repro.telemetry.core import Telemetry

    fn = CHECKERS.get(name)
    if fn is None:
        raise ValueError(f"unknown checker {name!r}")
    tel = Telemetry.coerce(telemetry)
    with tel.span("checkers", checker=name) as sp:
        reports = fn(program, result)
        sp.set(reports=len(reports))
    tel.count("checkers.reports", len(reports))
    return reports


__all__ = [
    "AccessReport",
    "Verdict",
    "alarms",
    "check_overruns",
    "DivReport",
    "DivVerdict",
    "check_divisions",
    "div_alarms",
    "NullReport",
    "NullVerdict",
    "check_null_derefs",
    "null_alarms",
    "ALARMS",
    "CHECKERS",
    "run_checker",
]
