"""Rule systems, derivation trees, and conclusion inference.

Rules are named partial functions; a finite list of them generates a
closure in layers, and everything in the closure is justified by a
derivation tree.  On top of the engine sit three worked instances:
natural deduction for conjunction and implication, a small language of
recursive functions over the naturals, and finite automata whose runs
are derivations.

The names below, and the submodules `engine`, `trees` and `errors`, are
imported on first use (PEP 562), so that importing the package, or a
submodule that does not need the engine, does not load it.
"""

import importlib

_EXPORTS = {
    "errors": ("ArityMismatch", "ParseError", "Rejected", "ResourceLimit"),
    "trees": ("Tree", "parse_name_tree", "print_name_tree"),
    "engine": (
        "Rule",
        "RuleSystem",
        "check_elem_tree",
        "check_full_tree",
        "erase_elements",
        "erase_names",
        "even_numbers",
        "infer_conclusion",
        "infer_full_tree",
        "iterate",
        "member",
        "render_element",
        "render_set",
        "step",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
