"""Combinatorial Auslander-Reiten theory of string algebras.

Strings and bands, string modules over an exact field, translates by word
surgery with a DTr oracle, knitted AR quivers, radical filtrations and
degrees of irreducible morphisms, local pattern detection, theorem audits,
and the W/U/V witness families.
"""

from .artheory import (
    ARQuiver,
    AlmostSplitSequence,
    ar_sequence,
    is_injective_word,
    is_projective_word,
    knit,
    tau,
    tau_inverse,
    tau_oracle,
    tau_orbit,
    tau_word,
)
from .configurations import (
    PatternMatch,
    audit_theorems,
    detect_local_patterns,
    find_tau_arrows,
    find_three_cycles,
    path_class,
)
from .errors import (
    BandFoundError,
    IsInjectiveError,
    IsProjectiveError,
    NotAStringError,
    NotIrreducibleError,
    PresentationSyntaxError,
    StringAlgebraError,
)
from .families import FamilySpec, FamilyWitness, make_family, witness
from .fields import QQ, PrimeField, field_for_characteristic
from .modules import (
    HomBasis,
    MorphismMatrix,
    Representation,
    StringModule,
    compose_chain,
    end_radical,
    hom_basis,
    is_isomorphic,
    realize,
    standard_module,
)
from .presentation import (
    AlgebraPresentation,
    Quiver,
    nonzero_path_count,
    parse_presentation,
    serialize_presentation,
    validate_string_algebra,
)
from .radical import (
    CountingQuiver,
    Degree,
    RadicalProfile,
    RadicalTable,
    ZERO_DEPTH,
    cg_quiver,
    iota_morphism,
    theta_morphism,
)
from .strings import (
    Letter,
    StringWord,
    Walk,
    canonicalize,
    enumerate_strings,
    find_bands,
    has_band,
    is_string,
    string_flags,
    string_word,
    walk_from_text,
    walk_to_text,
)

__version__ = "0.1.0"
