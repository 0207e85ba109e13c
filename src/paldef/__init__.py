"""Public announcement logic with boolean definitions.

A library and CLI for a two-layer epistemic language in which atoms carry
local boolean definitions: parsing and printing, model validation and
checking, decision procedures for definitional equivalence with circularity
witnesses, Hilbert-style proof verification, announcement reduction, and
tableau satisfiability for the announcement-free fragment.
"""

from .syntax import (
    And, AnnF, Atom, BoolForm, BoxF, DefIsF, EquivF, Form, KdF, Neg, OccSubst,
    ParseError, apply_occ_subst, apply_simultaneous, is_circular, length,
    lex_compare, lex_key, occurrences, parse_bool, parse_form, text_of_bool,
    text_of_form, vocabulary,
)
from .definitions import (
    CircularityDetected, CircularWitness, DefState, PatternClash, SatCheck,
    literal_sat, merge, merge_substitution, parse_literal_lines, pick,
)
from .models import (
    InvalidModelError, Model, Premodel, eval_bool, fixture_names, fixture_path,
    load, restrict, save, single_world_model, unravel, validate,
)
from .checker import eval_global, evaluate, extension_table
from .proof import (
    ProofLine, ProofOutcome, ReductionError, SatOutcome, TautologyBudgetError,
    is_axiom_instance, is_tautology, proof_from_json, proof_to_json,
    reduce_announcements, satisfiable, valid, verify_proof, witness_to_proof,
)

__version__ = "0.1.0"
