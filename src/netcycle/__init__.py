"""netcycle: multilateral debt netting over invoice graphs.

Pipeline: aggregate invoices into a weighted directed debt graph, split it
into strongly connected components, enumerate the elementary circuits of
bounded length inside each, then choose a settlement order that maximizes
the total netted amount.
"""

__version__ = "0.1.0"

from .circuits import (
    ComponentCircuits,
    EnumerationConfig,
    EnumerationResult,
    enumerate_circuits,
    enumerate_graph,
    merge_circuits,
)
from .datagen import InfeasibleRequest, generate_synthetic
from .ledger import (
    Circuit,
    CompanyId,
    DebtGraph,
    DensityUndefinedError,
    IngestResult,
    Invoice,
    InvoiceError,
    RejectedRecord,
    canonical_rotation,
    density,
    ingest_csv,
    write_invoices_csv,
)
from .pipeline import (
    PipelineConfig,
    RunReport,
    TruncatedInStrictMode,
    emit_report_csv,
    run_pipeline,
)
from .scc import SccPartition, nontrivial_components, tarjan
from .settlement import (
    ExactSearchRefused,
    OptimizerConfig,
    PlanStep,
    SettlementPlan,
    StalePlanError,
    optimize_order,
    plan_for_order,
    plan_per_scc,
    replay,
)
