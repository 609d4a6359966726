"""plotdata: one plot table, chosen by ``plot.which``.

``symbol-name-distribution`` reads the corpus: the class distributions of
one identifier and of one of its gold names.  ``entropy-table`` reads only
``entropy_report.tsv`` of the explain stage, so it loads no corpus code.
"""

from __future__ import annotations

import math

from .. import cli
from ..errors import ConfigError, ParseError, ValidationError, read_utf8
from . import resolve_corpus


def run(config: dict, out: cli.StageWriter) -> None:
    if config["plot"]["which"] == "symbol-name-distribution":
        _symbol_name_table(config, out)
    else:
        _entropy_table(out)


def _symbol_name_table(config: dict, out: cli.StageWriter) -> None:
    from .. import stats

    docs = resolve_corpus(config, out)
    library = stats.build_distribution_library(docs, class_axis=config["class_axis"])
    if not library.identifier_class:
        raise ValidationError("corpus contains no identifiers to plot")
    symbol = config["plot"]["symbol"]
    if symbol is None:
        symbol = min(library.identifier_class,
                     key=lambda s: (-sum(library.identifier_class[s].values()), s))
    if symbol not in library.identifier_class:
        raise ConfigError(f"identifier {symbol!r} does not occur in the corpus")
    name = config["plot"]["name"]
    if name is None:
        by_name = library.identifier_name.get(symbol)
        if not by_name:
            raise ValidationError(f"identifier {symbol!r} has no gold names")
        name = min(by_name, key=lambda n: (-by_name[n], n))
    if name not in library.name_class:
        raise ConfigError(f"name {name!r} does not occur in the corpus")
    out.tsv("plot_symbol_name.tsv", ["series", "class", "fraction"], [
        (series, label, fraction)
        for series, table in ((f"identifier:{symbol}", library.identifier_class[symbol]),
                              (f"name:{name}", library.name_class[name]))
        for label, fraction in sorted(stats.CountDistribution(table).normalized().items())])


def _entropy_table(out: cli.StageWriter) -> None:
    source = out.out_dir / "entropy_report.tsv"
    if not source.is_file():
        raise ParseError("entropy_report.tsv not found; run the explain stage first")
    parsed = []
    # Split on "\n" only, as every other reader does; the header is skipped.
    rows = read_utf8(source).removesuffix("\n").split("\n")[1:]
    for line_no, line in enumerate(rows, start=2):
        label, _, value = line.partition("\t")
        try:
            entropy = float(value)
        except ValueError:
            entropy = math.nan
        if not math.isfinite(entropy):
            raise ParseError(f"entropy_report.tsv: expected a row name, a tab and a "
                             f"finite entropy, got {line!r}", line_no)
        parsed.append((label, entropy))
    total = sum(value for _, value in parsed)
    if total <= 0:
        raise ValidationError("entropy table sums to zero; nothing to normalize")
    out.tsv("plot_entropy_table.tsv", ["row", "entropy_bits", "normalized"],
            [(label, value, value / total) for label, value in parsed])
    out.inputs["entropy_report.tsv"] = cli._digest_file(source)
