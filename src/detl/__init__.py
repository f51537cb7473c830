"""Dynamic epistemic temporal logic: models, updates, reduction and
validity, bisimulation, translations.

Every public name resolves on first use: `detl.validity` imports the
formula, frame and tableau layers and nothing else, and `detl.X` is a
plain lookup from then on."""

_LAYERS = {  # module -> the public names it defines
    "action": """ACTION_PROPERTIES ActionModel FLAT PointedAction action_depth
        check_action_property check_history_preservation
        check_past_preservation check_time_advancing is_atemporal_action
        is_epistemic_past_state is_lrdetl_action is_past_state sharp_action
        sharp_formula""",
    "formula": """And Atom BOT Bottom Box Formula Not ParseError Signature TOP
        Update Yesterday actions_in agents_in atoms_in conj depth_formula
        diamond dia_update dia_yesterday disj iff implies is_atemporal is_setl
        parse pretty subformulas y_nesting_depth""",
    "kripke": """INFINITE KRIPKE_PROPERTIES KripkeModel PointedModel
        PropertyReport RESTRICTED_PROPERTIES check_property close_pairs depth
        generated_submodel is_initial is_restricted relation_closure""",
    "logic": """Bisimulation DEFAULT_NODE_LIMIT TableauLimit bisimilar is_valid
        reduce_formula validity""",
    "semantics": """EmptyProductError ProbeVerdict Verdict eval_rdetl eval_ydel
        evaluate formula_pool language_equivalence_probe pair_name
        product_update split_pair ydel_update""",
    "serialize": """Workspace action_to_document canonical_document
        canonical_dumps document_to_object model_to_document save_action
        save_model""",
}
_MODULE_OF = {name: module for module, names in _LAYERS.items()
              for name in [module, *names.split()]}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the module that defines `name` and keep the value here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _MODULE_OF[name]
    __import__(f"{__name__}.{module}")  # binds the submodule in globals()
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return list(__all__)
