"""Certified entropy bounds for symmetric nearest-neighbor subshifts of
finite type, computed from exact counts of locally admissible patterns."""

from .models import (
    Alphabet,
    ModelFormatError,
    SftModel,
    builtin_model,
    drop_last_axis,
    model_from_doc,
    model_to_doc,
    parse_model,
)
from .patterns import (
    CubePattern,
    SurfaceState,
    format_pattern,
    is_locally_admissible,
    surface_state,
)
from .transfer import (
    BudgetExceededError,
    Side,
    count_patterns,
    count_via_transfer,
)
from .gluing import (
    CountMismatchError,
    GlueError,
    GlueInput,
    glue,
    glue_single,
    periodic_core,
    tiling_witness,
    verify_key_inequality,
)
from .bounds import (
    BoundsRow,
    ConvergenceReport,
    build_report,
    entropy_bounds,
    q_poly,
    report_to_csv,
    report_to_json_dict,
    verify_doubling_monotonicity,
    verify_power_mean_bound,
    verify_qd_recurrence,
)
from .sampling import (
    SamplingError,
    sample_admissible,
    sample_same_state_group,
    sample_with_state,
)

__version__ = "0.1.0"
