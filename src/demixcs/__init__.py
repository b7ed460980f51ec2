"""demixcs: joint recovery of sparse signals and sparse corruptions.

Measurements follow y = A x + H z + w where x is a sparse signal, z a
sparse corruption expressed in the basis H, and w bounded dense noise.
The package provides fast structured measurement operators, penalized-l1
and reweighted-least-squares solvers, exact small-scale restricted
isometry oracles with recovery certification, and a reproducible
Monte-Carlo experiment harness.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ArgumentError,
    BudgetError,
    DemixError,
    FormatError,
    NumericalError,
    UsageError,
)
from .linop import (  # noqa: F401
    Composed,
    Dense,
    Diagonal,
    Fourier,
    HStacked,
    LinearOperator,
    Scaled,
    Subsample,
    WalshHadamard,
    hstack,
    identity,
    materialize,
    power_iteration,
)
from .models import (  # noqa: F401
    ProblemInstance,
    SensingModel,
    build_cs_ofdm,
    build_drpe,
    build_family,
    build_modulated_hadamard,
    build_partial_circulant,
    build_subsampled_hadamard,
    coherence,
    custom_model,
    gen_instance,
    golay_sequence,
)
from .seeding import derive_seed  # noqa: F401
