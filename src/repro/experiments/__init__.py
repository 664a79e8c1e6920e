"""Experiment harness: campaign engine, figure builders, reports."""

from .cache import CacheStats, RunCache
from .engine import (
    Campaign,
    CampaignReport,
    CampaignSpec,
    ChunkLost,
    Clock,
    DeadlineExceeded,
    RunTask,
)
from .journal import CampaignJournal, JournalError, read_journal
from .protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameError,
    Handshake,
    ProtocolError,
)
from .remote import (
    HandshakeRejected,
    RemoteWorkerPool,
    WorkerServer,
    serve_worker,
)
from .figures import (
    BAR_VERSIONS,
    FigureSeries,
    Metric,
    all_figures,
    figure2,
    figure3,
    figure4,
)
from .regression import CellDelta, RegressionReport, compare, format_regressions
from .report import format_experiments_markdown, format_figure, format_summary
from .runner import ResultSet, run_grid
from .sweep import SizeSweep, SweepPoint, format_sweep, run_size_sweep
from .statistics import RepeatedStatistics, run_repeated
from .summary import Summary, summarize
from .trace import JsonlTraceSink, ListTraceSink, TraceEvent, TraceSink, read_trace

__all__ = [
    "BAR_VERSIONS",
    "CacheStats",
    "Campaign",
    "CampaignJournal",
    "CampaignReport",
    "CampaignSpec",
    "CellDelta",
    "ChunkLost",
    "Clock",
    "ConnectionClosed",
    "DeadlineExceeded",
    "FrameError",
    "Handshake",
    "HandshakeRejected",
    "JournalError",
    "JsonlTraceSink",
    "ListTraceSink",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RegressionReport",
    "RemoteWorkerPool",
    "WorkerServer",
    "FigureSeries",
    "Metric",
    "ResultSet",
    "RunCache",
    "RunTask",
    "SizeSweep",
    "SweepPoint",
    "RepeatedStatistics",
    "Summary",
    "TraceEvent",
    "TraceSink",
    "all_figures",
    "figure2",
    "figure3",
    "figure4",
    "compare",
    "format_experiments_markdown",
    "format_regressions",
    "format_figure",
    "format_summary",
    "format_sweep",
    "read_journal",
    "read_trace",
    "run_grid",
    "run_repeated",
    "run_size_sweep",
    "serve_worker",
    "summarize",
]
