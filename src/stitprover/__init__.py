"""Decision procedure, proof checker, and model tools for single-agent
choice logics with a settledness modality.

The package decides validity of goals built from boolean connectives, a
global box/diamond pair, and per-agent choice modalities, over frames whose
agent relations are equivalence relations subject to independence and an
optional bound on the number of choices.  Proof search returns either a
machine-checkable derivation or a stable sequent that converts into a
finite counter-model; an independent enumeration oracle cross-checks both.
"""

from .calculus import (
    CalculusConfig,
    CheckResult,
    Derivation,
    Mode,
    RuleTag,
    check_derivation,
    check_inference,
    side_condition_holds,
)
from .formula import (
    AgBox,
    AgDia,
    And,
    Atom,
    Box,
    Dia,
    Formula,
    NegAtom,
    Or,
    ParseError,
    iff,
    implies,
    negate,
    parse,
    pretty,
)
from .generate import enumerate_formulas, random_formula
from .prover import (
    InternalInvariantError,
    Provable,
    ProveResult,
    ProverConfig,
    SearchLimitExceeded,
    Unprovable,
    is_stable,
    prove,
)
from .semantics import (
    CounterModel,
    Model,
    Valid,
    ValidUpToBound,
    check_frame,
    decide_by_enumeration,
    evaluate,
    extract_countermodel,
)
from .sequent import (
    LabelledFormula,
    LabelledSequent,
    RelAtom,
    graph_of,
)
from .wire import (
    derivation_from_json,
    derivation_to_json,
    model_from_json,
    model_to_json,
    sequent_from_json,
    sequent_to_json,
)

__all__ = [
    "AgBox", "AgDia", "And", "Atom", "Box", "CalculusConfig", "CheckResult",
    "CounterModel", "Derivation", "Dia", "Formula", "InternalInvariantError",
    "LabelledFormula", "LabelledSequent", "Mode", "Model", "NegAtom", "Or",
    "ParseError", "Provable", "ProveResult", "ProverConfig", "RelAtom",
    "RuleTag", "SearchLimitExceeded", "Unprovable", "Valid", "ValidUpToBound",
    "check_derivation", "check_frame", "check_inference",
    "decide_by_enumeration", "derivation_from_json", "derivation_to_json",
    "enumerate_formulas", "evaluate", "extract_countermodel", "graph_of",
    "iff", "implies", "is_stable", "model_from_json", "model_to_json",
    "negate", "parse", "pretty", "prove", "random_formula",
    "sequent_from_json", "sequent_to_json", "side_condition_holds",
]
