"""repro — sparse global abstract interpretation for C-like languages.

A full reimplementation of Oh, Heo, Lee, Lee, Yi,
"Design and Implementation of Sparse Global Analyses for C-like Languages"
(PLDI 2012): a C-subset frontend and IR, interval and packed-octagon
abstract domains, dense (vanilla / access-localized) and *sparse* global
analyzers built on semantically derived def/use sets and precision-
preserving data dependencies, a buffer-overrun checker, and a
benchmark harness reproducing the paper's tables.

Quick start::

    from repro import analyze

    run = analyze('''
        int main(void) {
            int i; int s = 0;
            for (i = 0; i < 10; i++) { s = s + i; }
            return s;
        }
    ''')
    print(run.interval_at_exit("main", "s"))
"""

from repro.analysis.dense import run_dense
from repro.analysis.preanalysis import run_preanalysis
from repro.analysis.relational import run_rel_dense, run_rel_sparse
from repro.analysis.sparse import run_sparse
from repro.api import AnalysisRun, QueryResult, analyze, serve_session
from repro.checkers.overrun import check_overruns
from repro.domains.interval import Interval
from repro.frontend import parse
from repro.ir.program import Program, build_program
from repro.runtime import (
    AnalysisError,
    Budget,
    BudgetExceeded,
    Diagnostics,
    FaultPlan,
    ReproError,
)
from repro.telemetry import Telemetry, chrome_trace, phase_report

__version__ = "1.1.0"

__all__ = [
    "analyze",
    "AnalysisRun",
    "QueryResult",
    "serve_session",
    "parse",
    "build_program",
    "Program",
    "run_preanalysis",
    "run_dense",
    "run_sparse",
    "run_rel_dense",
    "run_rel_sparse",
    "check_overruns",
    "Interval",
    "Budget",
    "Diagnostics",
    "FaultPlan",
    "ReproError",
    "AnalysisError",
    "BudgetExceeded",
    "Telemetry",
    "chrome_trace",
    "phase_report",
    "__version__",
]
