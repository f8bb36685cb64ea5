"""forgepulse: commit-history analytics for developer communities.

Pipeline stages: ingest (git log -> validated records), identity (emails ->
organizational units), series (records -> monthly counts), metrics (rank
correlation, diversity index, contribution tail), growth (Gompertz/logistic
fits, phases, bi-phase detection), pipeline/cli (orchestration and reports).
"""

from .errors import (
    ConfigError,
    ForgepulseError,
    GrowthFitError,
    IdentityError,
    LogParseError,
    MetricError,
    RepoAcquisitionError,
    SeriesError,
)
from .growth import (
    GrowthFit,
    GrowthModel,
    PhaseLabel,
    classify_phase,
    detect_biphase,
    fit_growth,
    model_value,
)
from .identity import (
    DomainClass,
    IdentityConfig,
    OrgUnit,
    classify_domain,
    load_identity_config,
    normalize_email,
    registrable_domain,
    resolve_org,
)
from .ingest import (
    CommitRecord,
    IngestReport,
    RecordBlock,
    acquire_repo_log,
    parse_log_stream,
)
from .metrics import (
    contribution_tail,
    diversity,
    linear_trend,
    org_shares,
    spearman,
)
from .pipeline import (
    ProjectSource,
    RunConfig,
    compute_metrics,
    load_run_config,
    run_pipeline,
    summarize,
)
from .series import (
    EligibilityThresholds,
    MonthKey,
    MonthlySeries,
    build_monthly_series,
    check_eligibility,
    moving_average,
)

__version__ = "0.1.0"
