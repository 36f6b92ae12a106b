"""twistlog: exact symbolic computations in truncated tensor algebras over
the first homology of a compact surface with one boundary component.

The package provides group-like (symplectic) expansions of the fundamental
group, the loop invariant L attached to a based loop, logarithms of Dehn
twists, Johnson map components, and a certificate suite that re-verifies the
algebraic identities tying these together.  All arithmetic is exact rational.
"""

from .rationals import BACKEND, Rat, rat_from_string, rat_to_string
from .tensor import (
    AlgebraContext,
    Tensor,
    antipode,
    antisymmetrize,
    basis_tensor,
    filtration_degree,
    graded_part,
    intersection,
    monomial_tensor,
    one_tensor,
    scalar_tensor,
    symplectic_form,
    tensor_from_json,
    tensor_to_json,
    truncate,
    wedge_embed,
    zero_tensor,
)
from .lie import (
    bch,
    bracket,
    exp,
    format_bracket_tree,
    is_lie,
    log,
    lyndon_bracket_form,
    lyndon_bracket_forms,
    phi,
)
from .cyclic import cyclic_n, cyclic_n_hat, is_nu_invariant, necklace_bracket, nu
from .words import (
    FreeAutomorphism,
    GroupWord,
    apply_automorphism,
    automorphism_from_json,
    automorphism_to_json,
    boundary_word,
    compose,
    concat,
    conjugate,
    generator_word,
    handle_word,
    identity_automorphism,
    invert,
    invert_automorphism,
    twist,
    word_from_string,
    word_to_string,
)
from .endomorphism import Endomorphism, solve_generator_images
from .expansion import (
    EXPANSION_KINDS,
    Expansion,
    boundary_log,
    build_symplectic,
    connecting_automorphism,
    evaluate,
    expansion_from_json,
    expansion_to_json,
    exponential_expansion,
    fixture_genus1,
    fixture_genus2,
    fixture_massuyeau_partial,
    fixture_trusted_degree,
    intertwiner,
    is_group_like,
    is_symplectic,
    load_fixture,
    log_evaluate,
    restrict,
    standard_expansion,
)
from .derivation import (
    Derivation,
    OmegaIdealContext,
    apply,
    commutator,
    derivation_from_json,
    derivation_to_json,
    exp_derivation,
    from_tensor,
    graded_component,
    is_symplectic_derivation,
    omega_ideal_equal,
    omega_ideal_reduce,
    to_tensor,
)
from .johnson import (
    Certificate,
    Curve,
    certificate_to_json,
    curve_twist,
    curve_word,
    describe_curve,
    homology_action,
    johnson_component,
    johnson_components,
    l_invariant,
    l_invariant_tensor,
    separating_tau_formula,
    sigma_act,
    sigma_act_log_square,
    total_johnson,
    verify_dehn_twist_formula,
    verify_nilpotent_dependence,
    verify_operator_identities,
)
from .suite import SUITE, run_check, run_suite, suite_names

__version__ = "0.1.0"
