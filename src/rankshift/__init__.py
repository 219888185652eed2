"""Rank-r subshifts of finite type.

Words on integer boxes governed by one boolean transition matrix per
coordinate direction: value types and primitive operations, decision
procedures for the product/irreducibility/nonperiodicity axioms,
constructive witnesses, and the combinatorial data of the associated
filtration diagram.
"""

from .core import (
    Alphabet,
    CompletionError,
    DecorationMap,
    DecoratedWord,
    InvalidWordError,
    SubshiftError,
    TileSystem,
    TransitionError,
    UnknownLetterError,
    WitnessSearchError,
    Word,
    absv,
    is_periodic,
    join,
    letter_word,
    meet,
    restrict,
    translates_agree,
    validate_word,
)
from .completion import (
    extend_unit,
    list_extensions,
    product,
    word_from_path,
    words_of_shape,
)
from .verify import (
    CheckResult,
    FiberFamily,
    Status,
    VerificationReport,
    check_h0,
    check_h1_local,
    check_h1_oracle,
    check_h2,
    check_h3_bounded,
    check_h3_star,
    verify_report,
)
from .witnesses import (
    connect,
    distinct_pair,
    grow_to_shape,
    nonperiodic_all,
    projection_support,
    separate_translates,
    separating_family,
)
from .af_core import (
    BratteliDiagram,
    bratteli,
    dim_vector,
)
from .builders import (
    from_rank1,
    full_shift,
    golden_mean,
    random_system,
    redecorate_by_shape,
    tensor,
)
from .cli import load_system, save_system

__version__ = "0.1.0"
