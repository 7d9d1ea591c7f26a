"""Exact calculus of differential forms over F_p(x_1, ..., x_m), with the
congruence-certificate machinery for purely inseparable extensions and the
characteristic-2 quadratic/bilinear form layer.
"""

from .certificates import (
    Certificate,
    ReductionResult,
    congruence_witness,
    exponent_reduction,
    monomial_split_certificate,
    power_certificate,
    sp_differential_shift,
    verify_certificate,
)
from .errors import (
    BadExponent,
    CertificateFailed,
    DegreeMismatch,
    FieldMismatch,
    KatoformsError,
    NotAdapted,
    NotClosed,
    NotExact,
    ParseError,
    UnsupportedExtension,
    ZeroDenominator,
)
from .extensions import (
    AdaptedData,
    ExtensionSpec,
    InsepCert,
    build_adapted,
    build_embedding,
    extension_from_json,
    extension_to_json,
    nu_kernel_member,
    omega_kernel_member,
    restrict,
    square_class_kernel,
    square_class_kernel_oracle,
)
from .fields import (
    FunctionField,
    MultiPoly,
    RatFunc,
    frobenius_compose,
    frobenius_decompose,
    partial,
    poly_gcd,
    pth_root,
    ratfunc_normalize,
    subfield_membership,
)
from .forms import (
    DiffForm,
    cartier,
    cartier_raw,
    d,
    dlog,
    form_class,
    grade_decompose,
    integrate,
    is_exact,
    nu_member,
    random_form,
    sp,
    sp_iter,
    wedge,
    wp,
)
from .generators import (
    GeneratorInstance,
    GeneratorSpec,
    LogGenerator,
    kernel_generators,
    log_kernel_generators,
    log_vanish_certificate,
    make_instance,
    pattern_lowering_certificate,
    power_patterns,
    rebase_generator,
    vanish_certificate,
)
from .oracle import (
    SearchBounds,
    exhaustive_exactness,
    solve_wp_plus_d,
)
from .witt import (
    BilForm,
    BilGenerator,
    HyperbolicityChain,
    IsometryCert,
    LagrangianCert,
    PfisterSymbol,
    QuadForm,
    Singular,
    WittGenerator,
    arf,
    bilinear_kernel_generators,
    hyperbolic_lagrangian,
    hyperbolicity_certificate,
    is_isometry,
    kato_e,
    kato_f,
    lagrangian_check,
    pfister_bil,
    pfister_quad,
    quad_kernel_generator,
    quad_kernel_generators,
    restrict_quad,
)

__version__ = "1.0.0"
