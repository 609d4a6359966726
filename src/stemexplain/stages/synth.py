"""synth: the demo corpus, its symbol sources, concept map, gazetteers and config.

A fixture generator rather than a pipeline stage, so it writes no
manifest; the emitted config uses paths relative to the output
directory and works from anywhere.
"""

from __future__ import annotations

import copy

from .. import cli, corpus, synth


def run(config: dict, out: cli.StageWriter) -> None:
    docs = synth.demo_corpus()
    out.file("demo_corpus.jsonl", lambda path: corpus.save_corpus(docs, path))
    sources = synth.demo_symbol_sources()
    for source in sources:
        out.file(f"source_{source.name}.tsv",
                 lambda path: synth.write_symbol_source(source, path))
    out.file("concept_map.tsv",
             lambda path: synth.write_concept_map(synth.demo_concept_map(), path))
    gazetteers = synth.demo_gazetteers()
    for tag, gazetteer in sorted(gazetteers.items()):
        out.file(f"gazetteer_{tag}.tsv", lambda path: synth.write_gazetteer(gazetteer, path))
    demo_config = copy.deepcopy(cli.DEFAULT_CONFIG)
    demo_config["corpus"] = "demo_corpus.jsonl"
    demo_config["seed"] = synth.DEMO_CONFIG.seed
    demo_config["linker"]["gazetteers"] = {
        tag: f"gazetteer_{tag}.tsv" for tag in sorted(gazetteers)}
    demo_config["augment"]["sources"] = {
        source.name: f"source_{source.name}.tsv" for source in sources}
    demo_config["augment"]["concept_map"] = "concept_map.tsv"
    demo_config["explain"]["source"] = "arxiv"
    out.json("demo_config.json", demo_config)
