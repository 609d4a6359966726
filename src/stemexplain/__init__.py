"""Desk-scale toolkit for classifying STEM documents and explaining the
classifiers through identifier symbols, their semantic names, and linked
entities.

The library lives in its own modules: corpus handling, tokenizing, token
and vector encoding, formula identifier extraction, entropies and
distribution statistics, category classification, symbol-name sources,
identifier augmentation and ablation experiments, gazetteer entity
linking, and surrogate explanations.  The cli module ties them together
behind one executable, with one module per stage under ``stages``.

Importing the package loads none of these modules.  Each public name in
``__all__`` resolves on first access through the module ``__getattr__``
(PEP 562), which imports its home module then.  So ``import stemexplain``
and a stage process that never fits a model do not pay for numpy, which only
``classify`` and ``explain`` import.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    **dict.fromkeys(("Document", "GoldAnnotations", "IdentifierOccurrence", "Segment",
                     "document_identifiers", "load_corpus", "parse_corpus_text",
                     "save_corpus"), "corpus"),
    **dict.fromkeys(("SparseVector", "TfIdfModel", "TokenStream", "fit_tfidf",
                     "lemmatize", "transform"), "encode"),
    "tokenize": "tokenizer",
    **dict.fromkeys(("DomainError", "ParseError", "ToolkitError", "ValidationError"),
                    "errors"),
    "extract_identifiers": "formulas",
    **dict.fromkeys(("CountDistribution", "margin_uncertainty", "shannon_entropy"),
                    "entropy"),
    **dict.fromkeys(("build_cooccurrence", "build_distribution_library"), "stats"),
    **dict.fromkeys(("LogRegModel", "predict_categories", "train_logreg"), "classify"),
    **dict.fromkeys(("Gazetteer", "evaluate_linking", "link_formula_concepts",
                     "link_text_entities"), "linker"),
    **dict.fromkeys(("LimeSettings", "build_entropy_report", "compute_rankings",
                     "lime_explain"), "explain"),
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
