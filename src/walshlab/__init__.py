"""walshlab: exact spectral analysis and search for Boolean functions."""

from .core import (
    AnfExpression,
    AnfParseError,
    DenseCapExceeded,
    Spectrum,
    TruthTable,
    dense_cap,
    from_anf,
    parse_anf,
    reverse,
    set_dense_cap,
    table_from_anf,
    walsh_transform,
)
from .metrics import (
    LogLinear,
    MetricsReport,
    SpectrumError,
    classify,
    entropy,
    influence_probe,
    influence_spectral,
    min_entropy,
)
from .construct import (
    AnalyticReport,
    CompositionSpec,
    UnbalancedFunctionError,
    VectorialFunction,
    compose_vectorial,
    disjoint_compose,
    disjoint_min_entropy,
    disjoint_spectrum,
    disjoint_walsh,
    epsilon_mass,
    gb_construction_report,
    ot_recursion_metrics,
    palindromic_extend,
)
from .search import (
    ConjectureCheck,
    RotSymFunction,
    SearchJob,
    SearchResult,
    SymmetricFunction,
    check_conjecture,
    necklaces,
    sweep,
    sweep_rotsym,
    sweep_symmetric,
)
from .report import VerificationLedger, run_verification_suite

__version__ = "0.1.0"
