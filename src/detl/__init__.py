"""Dynamic epistemic temporal logic: models, updates, reduction and
validity, bisimulation, translations."""

from .action import (ACTION_PROPERTIES, ActionModel, FLAT, PointedAction,
                     action_depth, check_action_property,
                     check_history_preservation, check_past_preservation,
                     check_time_advancing, is_atemporal_action,
                     is_epistemic_past_state, is_lrdetl_action, is_past_state,
                     sharp_action, sharp_formula)
from .formula import (And, Atom, BOT, Bottom, Box, Formula, Not, ParseError,
                      Signature, TOP, Update, Yesterday, actions_in,
                      agents_in, atoms_in, conj, depth_formula, diamond,
                      dia_update, dia_yesterday, disj, iff, implies,
                      is_atemporal, is_setl, parse, pretty, subformulas,
                      y_nesting_depth)
from .kripke import (INFINITE, KRIPKE_PROPERTIES, KripkeModel, PointedModel,
                     PropertyReport, RESTRICTED_PROPERTIES, check_property,
                     close_pairs, depth, generated_submodel, is_initial,
                     is_restricted, relation_closure)
from .logic import (Bisimulation, DEFAULT_NODE_LIMIT, TableauLimit, bisimilar,
                    is_valid, reduce_formula, validity)
from .semantics import (EmptyProductError, ProbeVerdict, Verdict, eval_rdetl,
                        eval_ydel, evaluate, formula_pool,
                        language_equivalence_probe, pair_name, product_update,
                        split_pair, ydel_update)
from .serialize import (Workspace, action_to_document, canonical_document,
                        canonical_dumps, document_to_object,
                        model_to_document, save_action, save_model)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
