"""Command-line behavior: config handling, exit codes, stage outputs."""

import argparse
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stemexplain

from stemexplain import cli
from stemexplain.cli import (DEFAULT_CONFIG, ConfigError, config_digest,
                             load_config, main)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_record(err):
    return json.loads(err.strip().splitlines()[-1])


class TestConfigLoading:
    def test_defaults_plus_overrides(self):
        config = load_config(None, {"seed": 7, "out_dir": "elsewhere"})
        assert config["seed"] == 7
        assert config["out_dir"] == "elsewhere"
        assert config["corpus"] == "@demo"

    def test_seed_required(self):
        with pytest.raises(ConfigError, match="seed"):
            load_config(None, {})

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError):
            load_config(None, {"seed": True})

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 1, "mystery": 2}', encoding="utf-8")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(str(path), {})

    def test_dotted_key_in_file_is_unknown(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 1, "logreg.l2": 0.5}', encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config key: logreg.l2"):
            load_config(str(path), {})

    def test_unknown_nested_key_named_with_trail(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 1, "logreg": {"momentum": 0.9}}', encoding="utf-8")
        with pytest.raises(ConfigError, match="logreg.momentum"):
            load_config(str(path), {})

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{seed: 1}", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_bad_class_axis(self):
        with pytest.raises(ConfigError, match="class_axis"):
            load_config(None, {"seed": 1, "class_axis": "dewey"})

    def test_bad_test_fraction(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 1, "split": {"test_fraction": 1.0}}',
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="test_fraction"):
            load_config(str(path), {})

    def test_relative_paths_anchor_to_config_file(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "corpus.jsonl").write_text("", encoding="utf-8")
        path = sub / "c.json"
        path.write_text('{"seed": 1, "corpus": "corpus.jsonl"}', encoding="utf-8")
        config = load_config(str(path), {})
        assert config["corpus"] == str(sub / "corpus.jsonl")

    def test_cli_override_beats_config_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 1, "corpus": "@demo"}', encoding="utf-8")
        config = load_config(str(path), {"seed": 99})
        assert config["seed"] == 99


class TestLogregValidation:
    @pytest.mark.parametrize("key, value", [
        ("l2", -1e-4),
        ("l2", 10 ** 400),  # parses as an int too large for a float
        ("tolerance", "tiny"),
        ("tolerance", float("inf")),
        ("max_iterations", 0),
        ("max_iterations", True),
        ("max_iterations", 2.5),
    ])
    def test_bad_value_exits_2(self, capsys, tmp_path, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "logreg": {key: value}}), encoding="utf-8")
        code, _, err = run(capsys, "classify", "-c", str(path),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 2
        record = stderr_record(err)
        assert record["error"] == "ConfigError"
        assert f"logreg.{key}" in record["message"]

    def test_step_is_not_a_config_key(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "logreg": {"step": "x"}}), encoding="utf-8")
        code, _, err = run(capsys, "classify", "-c", str(path),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert stderr_record(err)["message"] == "unknown config key: logreg.step"


class TestSettingsValidation:
    @pytest.mark.parametrize("stage, section, key, value", [
        ("explain", "explain", "top_m", "a"),
        ("mathel", "linker", "window", 2.5),
        ("explain", "lime", "num_samples", 0),
        ("link", "linker", "max_n", 0),
        ("mathel", "linker", "window", True),
        ("explain", "explain", "budget", 0),
        ("explain", "explain", "num_samples", -3),
        ("explain", "explain", "source_top_k", False),
        ("explain", "lime", "top_k", 0),
        ("explain", "lime", "top_k", 1.5),
        ("explain", "lime", "ridge", -1.0),
        ("explain", "lime", "ridge", float("nan")),
        ("explain", "lime", "kernel_width", 0),
        ("explain", "lime", "kernel_width", "wide"),
        ("augment", "augment", "top_k", [True]),
        ("augment", "augment", "top_k", []),
        ("augment", "augment", "top_k", [0]),
        ("augment", "augment", "top_k", [2.5]),
        ("augment", "augment", "top_k", "3"),
        ("link", "linker", "gazetteers", ["a"]),
        ("link", "linker", "gazetteers", {"a": 5}),
        ("augment", "augment", "sources", "x"),
        ("augment", "augment", "concept_map", 5),
        ("classify", "split", "test_fraction", False),
        ("classify", "encode", "lemmatize", "yes"),
        ("classify", "encode", "remove_stopwords", 0),
    ])
    def test_bad_value_exits_2_before_writing(self, capsys, tmp_path, stage, section,
                                              key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, section: {key: value}}), encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, stage, "-c", str(path), "--out-dir", str(out_dir))
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        record = stderr_record(err)
        assert record["error"] == "ConfigError"
        assert f"{section}.{key}" in record["message"]
        assert not out_dir.exists()

    def test_non_string_corpus_exits_2_before_writing(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "corpus": 5}), encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "ingest", "-c", str(path), "--out-dir", str(out_dir))
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        record = stderr_record(err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith("corpus ")
        assert not out_dir.exists()

    def test_null_top_k_and_kernel_width_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 1, "lime": {"top_k": null, "kernel_width": null}}',
                        encoding="utf-8")
        config = load_config(str(path), {})
        assert config["lime"]["top_k"] is None
        assert config["lime"]["kernel_width"] is None


class TestConfigDigest:
    def test_out_dir_does_not_participate(self):
        a = load_config(None, {"seed": 1, "out_dir": "here"})
        b = load_config(None, {"seed": 1, "out_dir": "there"})
        assert config_digest(a) == config_digest(b)

    def test_seed_participates(self):
        a = load_config(None, {"seed": 1})
        b = load_config(None, {"seed": 2})
        assert config_digest(a) != config_digest(b)

    def test_corpus_path_hashed_by_content(self, tmp_path):
        for name in ("x.jsonl", "y.jsonl"):
            (tmp_path / name).write_text(
                '{"id": "d", "arxiv": [], "msc": [], "segments": '
                '[{"kind": "text", "content": "hi"}]}\n', encoding="utf-8")
        a = load_config(None, {"seed": 1, "corpus": str(tmp_path / "x.jsonl")})
        b = load_config(None, {"seed": 1, "corpus": str(tmp_path / "y.jsonl")})
        assert config_digest(a) == config_digest(b)

    @pytest.mark.parametrize("stage", ["ingest", "link", "explain", "report"])
    def test_each_file_hashed_once_per_stage(self, capsys, tmp_path, monkeypatch, stage):
        from stemexplain import cli

        fixtures = tmp_path / "fixtures"
        assert run(capsys, "synth", "--seed", "1", "--out-dir", str(fixtures))[0] == 0
        config, out_dir = fixtures / "demo_config.json", tmp_path / "out"
        for earlier in ("ingest", "stats", "correspond", "classify", "augment", "ablate",
                        "link", "mathel", "explain"):
            if earlier == stage:
                break
            assert run(capsys, earlier, "-c", str(config), "--out-dir", str(out_dir))[0] == 0
        hashed, digest_file = [], cli._digest_file

        def spy(path):
            hashed.append(Path(path).resolve())
            return digest_file(path)

        monkeypatch.setattr(cli, "_digest_file", spy)
        assert run(capsys, stage, "-c", str(config), "--out-dir", str(out_dir))[0] == 0
        assert len(hashed) == len(set(hashed))
        # the config digest hashes every input file, loaded by the stage or not
        assert {(fixtures / name).resolve() for name in (
            "demo_corpus.jsonl", "concept_map.tsv", "gazetteer_wikidump.tsv")} <= set(hashed)


class TestMainErrors:
    def test_missing_seed_exits_2(self, capsys):
        code, _, err = run(capsys, "ingest")
        assert code == 2
        assert stderr_record(err)["error"] == "ConfigError"

    def test_missing_corpus_file_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "ingest", "--seed", "1",
                           "--corpus", str(tmp_path / "absent.jsonl"),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 3
        assert stderr_record(err)["error"] == "ParseError"

    def test_link_without_gazetteers_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "link", "--seed", "1",
                           "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert "gazetteers" in stderr_record(err)["message"]

    @pytest.mark.parametrize("source, sources, named", [
        ("nope", True, "arxiv, wikidata, wikipedia"),
        (None, True, "arxiv, wikidata, wikipedia"),
        ("arxiv", False, "none configured"),
    ])
    def test_explain_source_outside_augment_sources_exits_2(self, capsys, tmp_path, source,
                                                            sources, named):
        fixtures = tmp_path / "fixtures"
        assert run(capsys, "synth", "--seed", "1", "--out-dir", str(fixtures))[0] == 0
        config = json.loads((fixtures / "demo_config.json").read_text())
        config["explain"]["source"] = source
        if not sources:
            config["augment"]["sources"] = {}
        path = fixtures / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run(capsys, "explain", "-c", str(path), "--out-dir", str(tmp_path / "out"))
        assert code == 2
        (line,) = err.strip().splitlines()
        assert json.loads(line) == {
            "error": "ConfigError",
            "message": f"explain.source is {json.dumps(source)}; it must name one of "
                       f"augment.sources ({named})"}

    def test_report_with_missing_sections_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", "--seed", "1",
                           "--out-dir", str(tmp_path / "out"))
        assert code == 3
        assert "ingest_summary.tsv" in stderr_record(err)["message"]

    def test_plotdata_entropy_table_needs_explain_output(self, capsys, tmp_path):
        code, _, err = run(capsys, "plotdata", "--seed", "1",
                           "--out-dir", str(tmp_path / "out"),
                           "--which", "entropy-table")
        assert code == 3

    def test_bad_seed_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["ingest", "--seed", "lots"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestMalformedInputs:
    """Bad input bytes exit 3 with one JSON record naming the line, never a traceback."""

    @pytest.mark.parametrize("row", ["MDiscTextClsEnt 1.5", "MDiscTextClsEnt\tabc",
                                     "MDiscTextClsEnt\tnan"])
    def test_bad_entropy_report_row(self, capsys, tmp_path, row):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "entropy_report.tsv").write_text(
            f"row\tentropy_bits\nMFreqTextClsEnt\t2.0\n{row}\n", encoding="utf-8")
        code, _, err = run(capsys, "plotdata", "--seed", "1", "--out-dir", str(out_dir),
                           "--which", "entropy-table")
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        record = stderr_record(err)
        assert record["error"] == "ParseError"
        assert record["message"].startswith("line 3: ")
        assert sorted(p.name for p in out_dir.iterdir()) == ["entropy_report.tsv"]

    @pytest.mark.parametrize("gold", [
        {"entity_relevance": {"wave function": "x"}},
        {"entity_relevance": {"wave function": [1]}},
        {"entity_relevance": {"wave function": True}},
        {"entity_relevance": None},
        {"concept_relevance": {"f1": {"wave function": None}}},
        {"concept_relevance": {"f1": {"wave function": 1.7}}},
        {"concept_relevance": {"f1": {"wave function": False}}},
        {"concept_relevance": {"f1": ["wave function"]}},
        {"identifier_names": ["x"]},
        {"identifier_names": {"f1": "energy"}},
    ])
    def test_bad_gold_value(self, capsys, tmp_path, gold):
        good = {"id": "d1", "arxiv": ["math.AP"], "msc": [],
                "segments": [{"kind": "text", "content": "a wave function"}],
                "gold": {"entity_relevance": {"wave function": 1.0},
                         "concept_relevance": {"f1": {"wave function": 2}}}}
        bad = dict(good, id="d2", gold=gold)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "ingest", "--seed", "1", "--corpus", str(corpus),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        record = stderr_record(err)
        assert record["error"] == "ParseError"
        assert record["message"].startswith("line 2: ")

    def test_non_finite_symbol_frequency(self, capsys, tmp_path):
        fixtures = tmp_path / "fixtures"
        assert run(capsys, "synth", "--seed", "1", "--out-dir", str(fixtures))[0] == 0
        source = fixtures / "source_arxiv.tsv"
        lines = source.read_text(encoding="utf-8").splitlines()
        source.write_text("\n".join(lines[:3] + ["x\tfoo\tnan"] + lines[3:]) + "\n",
                          encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "augment", "-c", str(fixtures / "demo_config.json"),
                           "--out-dir", str(out_dir))
        assert code == 3
        record = stderr_record(err)
        assert record["error"] == "ParseError"
        assert record["message"] == "line 4: bad frequency 'nan'"
        assert not out_dir.exists() or not any(out_dir.iterdir())


class TestNotUtf8:
    """Input bytes that are not UTF-8 exit 2 (config) or 3 with one JSON record."""

    def test_config(self, tmp_path):
        path = tmp_path / "c.json"
        data = b'{"seed": 1,\n "corpus": "\xe9.jsonl"}'
        path.write_bytes(data)
        with pytest.raises(ConfigError) as err:
            load_config(str(path), {})
        assert str(err.value) == (f"line 2: {path}: not valid UTF-8: byte 0xe9 "
                                  f"at offset {data.index(0xE9)}")

    def test_entropy_table(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        data = b"row\tentropy_bits\nA\t2.0\n\xffB\t1.0\n"
        (out_dir / "entropy_report.tsv").write_bytes(data)
        code, _, err = run(capsys, "plotdata", "--seed", "1", "--out-dir", str(out_dir),
                           "--which", "entropy-table")
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert stderr_record(err) == {
            "error": "ParseError",
            "message": f"line 3: {out_dir / 'entropy_report.tsv'}: not valid UTF-8: "
                       f"byte 0xff at offset {data.index(0xFF)}"}

    def test_entropy_table_rows_split_on_newlines_only(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "entropy_report.tsv").write_text(
            "row\tentropy_bits\nA\u2028B\t1.0\nC\x85\t3.0\n", encoding="utf-8")
        code, _, _ = run(capsys, "plotdata", "--seed", "1", "--out-dir", str(out_dir),
                         "--which", "entropy-table")
        assert code == 0
        table = (out_dir / "plot_entropy_table.tsv").read_text(encoding="utf-8")
        assert table.split("\n") == ["row\tentropy_bits\tnormalized", "A\u2028B\t1\t0.25",
                                     "C\x85\t3\t0.75", ""]

    def test_report_table(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for _, name in cli.REPORT_SECTIONS:
            (out_dir / name).write_bytes(b"metric\tvalue\n")
        data = b"metric\tvalue\nacc\t0.5\x80\n"
        (out_dir / "classify.tsv").write_bytes(data)
        code, _, err = run(capsys, "report", "--seed", "1", "--out-dir", str(out_dir))
        assert code == 3
        assert stderr_record(err)["message"] == (
            f"line 2: {out_dir / 'classify.tsv'}: not valid UTF-8: byte 0x80 "
            f"at offset {data.index(0x80)}")
        assert not (out_dir / "report.md").exists()

    def test_gazetteer(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"id": "d1", "arxiv": ["math.AP"], "msc": [],
                                      "segments": [{"kind": "text", "content": "a wave"}]})
                          + "\n", encoding="utf-8")
        (tmp_path / "gaz.tsv").write_bytes(b"wave\tQ1\n\xfe\tQ2\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": 1, "corpus": "corpus.jsonl",
                                      "linker": {"gazetteers": {"g": "gaz.tsv"}}}),
                          encoding="utf-8")
        code, _, err = run(capsys, "link", "-c", str(config), "--out-dir", str(tmp_path / "out"))
        assert code == 3
        assert stderr_record(err)["message"].startswith("line 2: ")


# The help text of every subcommand, as the parser offers them.
SUBCOMMAND_HELP = {
    "print-config": "print the effective configuration and exit",
    "synth": "write the demo corpus and its fixture files",
    "ingest": "validate the corpus and summarize its contents",
    "stats": "identifier/name/class distributions and their entropies",
    "correspond": "arXiv/MSC co-occurrence, uncertainty, and cross prediction",
    "classify": "train and score the text classifier",
    "augment": "identifier-name augmentation experiment",
    "ablate": "text/math input ablation experiment",
    "link": "gazetteer entity linking and its evaluation",
    "mathel": "formula-concept linking and coverage",
    "explain": "surrogate explanations, entity rankings, entropy table",
    "plotdata": "plot-ready tables derived from stage outputs",
    "report": "assemble stage tables into report.md and manifest.json",
}


def test_parser_offers_every_stage_with_its_help():
    from stemexplain.cli import STAGES, build_parser

    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    offered = {choice.dest: choice.help for choice in subparsers._choices_actions}
    assert offered == SUBCOMMAND_HELP
    assert list(offered) == ["print-config", *STAGES]
    assert len(STAGES) == 12


def _snapshot(directory: Path) -> dict[str, tuple[int, bytes, int]]:
    """Each file's inode, bytes and mode."""
    return {p.name: (p.stat().st_ino, p.read_bytes(), p.stat().st_mode)
            for p in directory.iterdir()}


class TestWriteContract:
    """Files are replaced atomically; a stage manifest is removed at the first write
    and written last, so a manifest on disk always matches its files."""

    def test_failure_after_the_first_file_leaves_no_manifest_and_no_temp_file(
            self, capsys, tmp_path, monkeypatch):
        out_dir = tmp_path / "out"
        assert run(capsys, "stats", "--seed", "1", "--out-dir", str(out_dir))[0] == 0
        old_library = (out_dir / "library.jsonl").stat().st_ino
        replaced, real_replace = [], os.replace

        def replace_then_fail(source, target):
            replaced.append(Path(target).name)
            if len(replaced) == 2:
                raise OSError("no space left on device")
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", replace_then_fail)
        code, _, err = run(capsys, "stats", "--seed", "1", "--out-dir", str(out_dir))
        assert code == 3
        assert stderr_record(err) == {"error": "OSError",
                                      "message": "no space left on device"}
        assert replaced == ["library.jsonl", "entropy_summary.tsv"]
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["entropy_summary.tsv", "key_entropies.tsv", "library.jsonl"]
        assert (out_dir / "library.jsonl").stat().st_ino != old_library

    def test_failure_before_the_first_write_leaves_out_dir_untouched(self, capsys, tmp_path):
        fixtures, out_dir = tmp_path / "fixtures", tmp_path / "out"
        assert run(capsys, "synth", "--seed", "1", "--out-dir", str(fixtures))[0] == 0
        assert run(capsys, "link", "-c", str(fixtures / "demo_config.json"),
                   "--out-dir", str(out_dir))[0] == 0
        before = _snapshot(out_dir)
        assert "link_manifest.json" in before
        code, _, err = run(capsys, "link", "--seed", "1", "--out-dir", str(out_dir))
        assert code == 2
        assert stderr_record(err)["error"] == "ConfigError"
        assert _snapshot(out_dir) == before

    def test_rerun_removes_a_leftover_temp_file(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / ".ingest_summary.tsv.partial").write_text("metric\tval", encoding="utf-8")
        assert run(capsys, "ingest", "--seed", "1", "--out-dir", str(out_dir))[0] == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "ingest_manifest.json", "ingest_summary.tsv"]

    def test_report_manifest_skips_a_leftover_temp_file(self, capsys, tmp_path):
        from stemexplain.cli import REPORT_SECTIONS

        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for _, name in REPORT_SECTIONS:
            (out_dir / name).write_text("metric\tvalue\n", encoding="utf-8")
        (out_dir / ".explain.json.partial").write_text("{", encoding="utf-8")
        assert run(capsys, "report", "--seed", "1", "--out-dir", str(out_dir))[0] == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest["files"]) == {name for _, name in REPORT_SECTIONS} | {"report.md"}

    def test_each_manifest_lists_exactly_the_files_its_stage_wrote(self, capsys, tmp_path):
        fixtures, out_dir = tmp_path / "fixtures", tmp_path / "out"
        assert run(capsys, "synth", "--seed", "1", "--out-dir", str(fixtures))[0] == 0
        common = ("-c", str(fixtures / "demo_config.json"), "--out-dir", str(out_dir))
        out_dir.mkdir()
        for argv in (("ingest",), ("stats",), ("correspond",), ("classify",), ("augment",),
                     ("ablate",), ("link",), ("mathel",), ("explain",),
                     ("plotdata", "--which", "symbol-name-distribution"),
                     ("plotdata", "--which", "entropy-table"), ("report",)):
            before = {name: ino for name, (ino, _, _) in _snapshot(out_dir).items()}
            code, out, _ = run(capsys, *argv, *common)
            assert code == 0, argv
            after = {name: ino for name, (ino, _, _) in _snapshot(out_dir).items()}
            written = {name for name, ino in after.items() if before.get(name) != ino}
            assert set(out.strip().split(": wrote ")[1].split(", ")) == written, argv
            if argv[0] == "report":
                manifest = json.loads((out_dir / "manifest.json").read_text())
                assert set(manifest["files"]) == set(after) - {"manifest.json"}
            else:
                name = f"{argv[0]}_manifest.json"
                manifest = json.loads((out_dir / name).read_text())
                assert set(manifest["outputs"]) == written - {name}, argv
            assert not [p for p in after if p.startswith(".")], argv


class TestPrintConfig:
    def test_effective_config_printed(self, capsys):
        code, out, _ = run(capsys, "print-config", "--seed", "5")
        assert code == 0
        printed = json.loads(out)
        assert printed["seed"] == 5
        assert set(printed) == set(DEFAULT_CONFIG)


def test_readme_settings_table_is_the_settings_table():
    readme = Path(stemexplain.__file__).resolve().parents[2] / "README.md"
    lines = readme.read_text(encoding="utf-8").split("\n")
    rows = []
    for line in lines[lines.index("| path | default | accepted values |") + 2:]:
        if not line.startswith("|"):
            break
        path, default, values = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((path.strip("`"), json.loads(default.strip("`")), values))
    assert rows == [(path, default, cli.accepts(path)[1])
                    for path, (default, _, _) in cli.SETTINGS.items()]


class TestStages:
    def test_ingest_demo(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "ingest", "--seed", "1",
                           "--out-dir", str(out_dir))
        assert code == 0
        assert out.startswith("ingest: wrote")
        table = (out_dir / "ingest_summary.tsv").read_text(encoding="utf-8")
        metrics = dict(line.split("\t") for line in table.splitlines()[1:])
        assert metrics["documents"] == "120"
        # every demo document carries identifier-name gold
        assert metrics["documents_with_gold"] == "120"

    def test_manifest_shape(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        assert run(capsys, "stats", "--seed", "1",
                   "--out-dir", str(out_dir))[0] == 0
        manifest = json.loads((out_dir / "stats_manifest.json").read_text())
        assert set(manifest) == {"tool", "version", "stage", "seed",
                                 "config_digest", "inputs", "outputs"}
        assert manifest["stage"] == "stats"
        assert manifest["seed"] == 1
        assert set(manifest["outputs"]) == {"library.jsonl", "entropy_summary.tsv",
                                            "key_entropies.tsv"}
        for name in manifest["outputs"]:
            assert (out_dir / name).is_file()

    def test_stats_byte_identical_across_out_dirs(self, capsys, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "stats", "--seed", "1", "--out-dir", str(first))[0] == 0
        assert run(capsys, "stats", "--seed", "1", "--out-dir", str(second))[0] == 0
        for name in ("library.jsonl", "entropy_summary.tsv",
                     "key_entropies.tsv", "stats_manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_synth_emits_usable_config(self, capsys, tmp_path):
        fixtures = tmp_path / "fixtures"
        code, _, _ = run(capsys, "synth", "--seed", "1",
                         "--out-dir", str(fixtures))
        assert code == 0
        emitted = json.loads((fixtures / "demo_config.json").read_text())
        assert emitted["corpus"] == "demo_corpus.jsonl"
        assert emitted["seed"] == 12
        # the emitted config anchors to its own directory, so it works
        # with any working directory and any out_dir
        out_dir = tmp_path / "elsewhere"
        code, _, _ = run(capsys, "ingest", "-c", str(fixtures / "demo_config.json"),
                         "--out-dir", str(out_dir))
        assert code == 0
        assert (out_dir / "ingest_summary.tsv").is_file()

    def test_synth_writes_no_manifest(self, capsys, tmp_path):
        fixtures = tmp_path / "fixtures"
        assert run(capsys, "synth", "--seed", "1",
                   "--out-dir", str(fixtures))[0] == 0
        assert not (fixtures / "synth_manifest.json").exists()

    def test_plotdata_symbol_name(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "plotdata", "--seed", "1",
                         "--out-dir", str(out_dir),
                         "--which", "symbol-name-distribution")
        assert code == 0
        lines = (out_dir / "plot_symbol_name.tsv").read_text().splitlines()
        assert lines[0] == "series\tclass\tfraction"
        series = {line.split("\t")[0] for line in lines[1:]}
        assert len(series) == 2  # one identifier series, one name series
        for prefix in ("identifier:", "name:"):
            fractions = [float(line.split("\t")[2]) for line in lines[1:]
                         if line.startswith(prefix)]
            assert sum(fractions) == pytest.approx(1.0)

    @pytest.mark.parametrize("flag, message", [
        ("--symbol", "identifier 'zz' does not occur in the corpus"),
        ("--name", "name 'zz' does not occur in the corpus"),
    ], ids=["symbol", "name"])
    def test_plotdata_unknown_symbol_or_name_exits_2(self, capsys, tmp_path, flag, message):
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "plotdata", "--seed", "1", "--out-dir", str(out_dir),
                           "--which", "symbol-name-distribution", flag, "zz")
        assert code == 2
        assert stderr_record(err) == {"error": "ConfigError", "message": message}
        assert list(out_dir.iterdir()) == []

    def test_max_n_above_the_longest_gazetteer_key_is_clamped(self, capsys, tmp_path):
        from stemexplain.linker import load_gazetteer

        fixtures = tmp_path / "fixtures"
        assert run(capsys, "synth", "--seed", "12", "--out-dir", str(fixtures))[0] == 0
        config = json.loads((fixtures / "demo_config.json").read_text(encoding="utf-8"))
        longest = max(load_gazetteer(str(fixtures / ref), tag).index.longest
                      for tag, ref in config["linker"]["gazetteers"].items())
        written = []
        for max_n in (10 ** 6, longest):
            config["linker"]["max_n"] = max_n
            path = fixtures / f"max_n_{max_n}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            out_dir = tmp_path / f"out_{max_n}"
            assert run(capsys, "link", "-c", str(path), "--out-dir", str(out_dir))[0] == 0
            written.append({p.name: p.read_bytes() for p in out_dir.iterdir()
                            if p.name != "link_manifest.json"})
        assert written[0] == written[1]

    def test_classify_stage_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "classify", "--seed", "1",
                         "--out-dir", str(out_dir))
        assert code == 0
        table = (out_dir / "classify.tsv").read_text().splitlines()
        metrics = dict(line.split("\t") for line in table[1:])
        assert 0.0 <= float(metrics["accuracy"]) <= 1.0
        assert metrics["evaluated_on"] == "test"
        assert (out_dir / "classify_model.json").is_file()
        assert (out_dir / "classify_predictions.tsv").is_file()

    def test_classify_reports_solver_and_convergence(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "classify", "--seed", "1", "--out-dir", str(out_dir))
        assert code == 0
        assert err == ""
        table = (out_dir / "classify.tsv").read_text().splitlines()
        metrics = dict(line.split("\t") for line in table[1:])
        assert metrics["solver"] == "lbfgs"
        assert metrics["converged"] == "true"
        assert float(metrics["grad_norm"]) >= 0.0

    def test_unconverged_fit_warns_on_stderr_only(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 1, "logreg": {"max_iterations": 1}}', encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "classify", "-c", str(path), "--out-dir", str(out_dir))
        assert code == 0
        lines = err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["warning"] == "ConvergenceWarning"
        assert record["stage"] == "classify"
        assert record["iterations"] == 1
        assert record["final_loss"] > 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "classify.tsv", "classify_manifest.json", "classify_model.json",
            "classify_predictions.tsv"]

    def test_classify_scores_each_test_row_once(self, capsys, tmp_path, monkeypatch):
        from stemexplain import classify

        splits, fits, scored = [], [], []
        split, fit, predict = (classify.stratified_split, classify.fit_split_model,
                               classify.predict_labels)

        def split_spy(*args, **kwargs):
            splits.append(split(*args, **kwargs))
            return splits[-1]

        def fit_spy(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            return fits[-1]

        def predict_spy(model, vectors):
            scored.append({id(vector) for vector in vectors})
            return predict(model, vectors)

        monkeypatch.setattr(classify, "stratified_split", split_spy)
        monkeypatch.setattr(classify, "fit_split_model", fit_spy)
        monkeypatch.setattr(classify, "predict_labels", predict_spy)
        assert run(capsys, "classify", "--seed", "1", "--out-dir", str(tmp_path))[0] == 0
        ((_, test_idx),), ((_, vectors, _),) = splits, fits
        assert test_idx
        for i in test_idx:
            assert sum(id(vectors[i]) in call for call in scored) == 1

    def test_classify_model_records_the_run_seed(self, capsys, tmp_path):
        assert run(capsys, "classify", "--seed", "7", "--out-dir", str(tmp_path))[0] == 0
        record = json.loads((tmp_path / "classify_model.json").read_text(encoding="utf-8"))
        assert record["logreg"]["metadata"]["seed"] == 7

    def test_link_counts_unjudged_links_of_a_gold_document(self, capsys, tmp_path):
        record = {"id": "d1", "arxiv": ["math.AP"], "msc": [],
                  "segments": [{"kind": "text",
                                "content": "the wave function and the metric tensor"}],
                  "gold": {"entity_relevance": {"wave function": 1},
                           "entity_targets": {"wave function": {"title": "Wave_function"}}}}
        (tmp_path / "corpus.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
        (tmp_path / "gaz.tsv").write_text(
            "wave function\tWave_function\nmetric tensor\tMetric_tensor\n", encoding="utf-8")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "corpus": "corpus.jsonl",
                                    "linker": {"gazetteers": {"wikidump": "gaz.tsv"}}}),
                        encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "link", "-c", str(path), "--out-dir", str(out_dir))
        assert code == 0
        lines = (out_dir / "link_eval.tsv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split("\t")
        rows = {(r["mode"], r["variant"]): r
                for r in (dict(zip(header, line.split("\t"))) for line in lines[1:])}
        for variant in ("unlemmatized", "lemmatized"):
            # "metric tensor" links but has no judgment; "wave function" is a TP
            for mode in ("eval1", "eval2"):
                assert rows[mode, variant]["unjudged"] == "1"
                assert rows[mode, variant]["tp"] == "1"
            for mode in ("eval3", "eval4", "eval5", "eval6"):
                assert rows[mode, variant]["unjudged"] == "0"


class TestLinkStagesAgainstReference:
    """link and mathel share tokens and lemmas across gazetteers; the rows must
    equal the per-n-gram reference linkers' under the stages' sort and merge."""

    TEXTS = ["The wave functions of the metric tensors", "a wave function and field lines",
             "the field line of a metric tensor", "waves of the wave function collapse",
             "metric tensors"]
    SHARED = ["wave function", "metric tensor", "metric tensors", "field lines",
              "field line", "wave", "the field"]

    def write_inputs(self, tmp_path):
        records = []
        for i, text in enumerate(self.TEXTS):
            segments = []
            for j, part in enumerate(text.split(" of ")):
                segments.append({"kind": "text", "content": part + " of"})
                segments.append({"kind": "formula", "fid": f"d{i}f{j}",
                                 "content": "<math><mi>x</mi></math>"})
            record = {"id": f"d{i}", "arxiv": ["math.AP"], "msc": [], "segments": segments}
            if i == 0:
                record["gold"] = {"concept_relevance": {"d0f0": {"wave function": 2,
                                                                 "wave": 0}}}
            records.append(json.dumps(record))
        (tmp_path / "corpus.jsonl").write_text("\n".join(records) + "\n", encoding="utf-8")
        absent = "".join(f"absent{k} form{k}\tQ{900000 + k}\n" for k in range(3000))
        for tag, shared in (("wikidump", self.SHARED), ("item-name", self.SHARED[::2])):
            targets = "".join(f"{s}\t{s.replace(' ', '_').title()}\n" if tag == "wikidump"
                              else f"{s}\tQ{k + 1}\n" for k, s in enumerate(shared))
            (tmp_path / f"{tag}.tsv").write_text(targets + absent, encoding="utf-8")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "corpus": "corpus.jsonl", "linker": {
            "gazetteers": {tag: f"{tag}.tsv" for tag in ("wikidump", "item-name")}}}),
            encoding="utf-8")
        return path

    def test_rows_equal_reference_linkers(self, capsys, tmp_path):
        from stemexplain.corpus import load_corpus
        from stemexplain.linker import merge_concept_links

        from . import oracles

        config, out_dir = self.write_inputs(tmp_path), tmp_path / "out"
        for stage in ("link", "mathel"):
            assert run(capsys, stage, "-c", str(config), "--out-dir", str(out_dir))[0] == 0
        docs = load_corpus(str(tmp_path / "corpus.jsonl"))
        gazetteers = [oracles.load_gazetteer(tmp_path / f"{tag}.tsv", tag)
                      for tag in ("item-name", "wikidump")]  # sorted by tag

        def cells(*values):  # as the stages format them
            return ["" if v is None else str(v).lower() if isinstance(v, bool) else str(v)
                    for v in values]

        link_rows, mathel_rows = [], []
        for doc in docs:
            links = [link for g in gazetteers for lemmatized in (False, True)
                     for link in oracles.link_text_entities(doc, g, lemmatized=lemmatized)]
            links.sort(key=lambda l: (l.start, -l.length, l.source, l.lemmatized))
            link_rows += [cells(l.doc_id, l.start, l.length, l.surface, l.match_form,
                                l.target_title, l.target_item, l.source, l.lemmatized)
                          for l in links]
            gold = doc.gold if doc.gold is not None and doc.gold.concept_relevance else None
            concepts = merge_concept_links(*[oracles.link_formula_concepts(doc, g, gold=gold)
                                             for g in gazetteers])
            concepts.sort(key=lambda l: (l.formula_id, l.rank is None, -(l.rank or 0),
                                         l.phrase, l.source))
            mathel_rows += [cells(l.doc_id, l.formula_id, l.phrase, l.length, l.score, l.rank,
                                  l.target_title, l.target_item, l.source) for l in concepts]
        for name, expected in (("links.tsv", link_rows), ("mathel.tsv", mathel_rows)):
            lines = (out_dir / name).read_text(encoding="utf-8").splitlines()[1:]
            assert [line.split("\t") for line in lines] == expected, name
        assert {row[8] for row in link_rows} == {"true", "false"}
        assert any(row[4] != row[3] for row in link_rows)  # a lemma-only match
        assert any("+" in row[8] for row in mathel_rows)  # merged across gazetteers

    def test_mathel_lays_out_each_document_once(self, capsys, tmp_path, monkeypatch):
        from stemexplain.corpus import Document

        calls, layout = [], Document.token_layout

        def spy(doc):
            calls.append(doc.doc_id)
            return layout(doc)

        monkeypatch.setattr(Document, "token_layout", spy)
        config, out_dir = self.write_inputs(tmp_path), tmp_path / "out"
        assert run(capsys, "mathel", "-c", str(config), "--out-dir", str(out_dir))[0] == 0
        assert sorted(calls) == [f"d{i}" for i in range(len(self.TEXTS))]


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    src = str(Path(stemexplain.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)


def test_cli_import_leaves_scipy_unloaded():
    result = _python("import sys, stemexplain.cli; print('scipy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# Runs one stage through cli.main, then reports whether numpy was loaded.
_STAGE_PROBE = ("import sys\n"
                "from stemexplain.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "print('numpy' in sys.modules)\n"
                "sys.exit(code)\n")


def _stage_loads_numpy(*argv: str) -> bool:
    result = _python(_STAGE_PROBE, *argv)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("module", ["stemexplain", "stemexplain.cli"])
def test_import_leaves_numpy_unloaded(module):
    result = _python(f"import sys, {module}; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_demo_corpus_stage_leaves_numpy_unloaded(tmp_path):
    assert not _stage_loads_numpy("ingest", "--corpus", "@demo", "--seed", "1",
                                  "--out-dir", str(tmp_path / "out"))


def test_light_stage_processes_leave_numpy_unloaded(capsys, tmp_path):
    fixtures, out_dir = tmp_path / "fixtures", tmp_path / "out"
    synth = _python(_STAGE_PROBE, "synth", "--seed", "1", "--out-dir", str(fixtures))
    assert synth.returncode == 0, synth.stderr
    common = ("-c", str(fixtures / "demo_config.json"), "--out-dir", str(out_dir))
    light = ("ingest", "stats", "link", "mathel", "plotdata", "report")
    for argv in (("ingest",), ("stats",), ("correspond",), ("classify",), ("augment",),
                 ("ablate",), ("link",), ("mathel",), ("explain",),
                 ("plotdata", "--which", "symbol-name-distribution"),
                 ("plotdata", "--which", "entropy-table"), ("report",)):
        if argv[0] in light:
            assert not _stage_loads_numpy(*argv, *common), argv
        else:  # a fitting stage; it only has to leave its outputs behind
            assert run(capsys, *argv, *common)[0] == 0, argv
    assert (out_dir / "manifest.json").is_file()


def test_ingest_leaves_linker_and_stats_unloaded(tmp_path):
    record = {"id": "d1", "arxiv": ["math.AP"], "msc": [],
              "segments": [{"kind": "text", "content": "a wave"}]}
    (tmp_path / "corpus.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    probe = ("import sys\n"
             "from stemexplain.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(sorted(m for m in ('stemexplain.linker', 'stemexplain.stats')\n"
             "             if m in sys.modules))\n"
             "sys.exit(code)\n")
    result = _python(probe, "ingest", "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--seed", "1", "--out-dir", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


class TestLazyPackage:
    def test_every_public_name_resolves_to_its_home_object(self):
        for name in stemexplain.__all__:
            value = getattr(stemexplain, name)
            if name == "__version__":
                assert value == "0.1.0"
                continue
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value, name

    def test_dir_lists_every_public_name(self):
        assert set(stemexplain.__all__) <= set(dir(stemexplain))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            stemexplain.no_such_name  # noqa: B018
        assert not hasattr(stemexplain, "no_such_name")


# Package modules each stage run loads besides stemexplain, cli, errors, the
# stages package and its own stage module, and whether it loads numpy.  "data"
# is the package encode reads its word tables from.
_CORPUS_MODULES = {"corpus", "formulas", "tokenizer"}
_FITTING = {"classify", "encode", "data"}
STAGE_MODULES = (
    (("synth",), _CORPUS_MODULES | {"synth", "sources", "encode", "data", "linker"}, False),
    (("ingest",), _CORPUS_MODULES, False),
    (("stats",), _CORPUS_MODULES | {"stats", "entropy"}, False),
    (("correspond",), _CORPUS_MODULES | _FITTING | {"stats", "entropy"}, True),
    (("classify",), _CORPUS_MODULES | _FITTING, True),
    (("augment",), _CORPUS_MODULES | _FITTING | {"augment", "sources"}, True),
    (("ablate",), _CORPUS_MODULES | _FITTING | {"augment", "sources"}, True),
    (("link",), _CORPUS_MODULES | {"linker", "encode", "data"}, False),
    (("mathel",), _CORPUS_MODULES | {"linker", "encode", "data"}, False),
    (("explain",), _CORPUS_MODULES | _FITTING | {"explain", "sources", "entropy"}, True),
    (("plotdata", "--which", "symbol-name-distribution"),
     _CORPUS_MODULES | {"stats", "entropy"}, False),
    (("plotdata", "--which", "entropy-table"), set(), False),
    (("report",), set(), False),
)

# Runs cli.main, then prints the package modules loaded and whether numpy was.
_MODULE_PROBE = ("import json, sys\n"
                 "from stemexplain.cli import main\n"
                 "try:\n"
                 "    code = main(sys.argv[1:])\n"
                 "except SystemExit as exc:\n"
                 "    code = exc.code\n"
                 "print(json.dumps([sorted(m.removeprefix('stemexplain.') for m in sys.modules\n"
                 "                         if m.startswith('stemexplain.')),\n"
                 "                  'numpy' in sys.modules]))\n"
                 "sys.exit(code)\n")


def _loaded_modules(*argv: str) -> tuple[set[str], bool]:
    result = _python(_MODULE_PROBE, *argv)
    assert result.returncode == 0, result.stderr
    modules, numpy_loaded = json.loads(result.stdout.splitlines()[-1])
    return set(modules), numpy_loaded


def test_each_stage_process_loads_only_the_modules_it_runs(tmp_path):
    fixtures, out_dir = tmp_path / "fixtures", tmp_path / "out"
    common = ("-c", str(fixtures / "demo_config.json"), "--out-dir", str(out_dir))
    for argv, expected, numpy_expected in STAGE_MODULES:
        if argv[0] == "synth":
            argv = (*argv, "--seed", "1", "--out-dir", str(fixtures))
        else:
            argv = (*argv, *common)
        modules, numpy_loaded = _loaded_modules(*argv)
        assert modules == {"cli", "errors", "stages", f"stages.{argv[0]}"} | expected, argv
        assert numpy_loaded == numpy_expected, argv
    assert (out_dir / "manifest.json").is_file()


@pytest.mark.parametrize("argv", [("--help",), ("ingest", "--help"),
                                  ("print-config", "--seed", "1")])
def test_help_and_print_config_load_no_stage_module(argv):
    assert _loaded_modules(*argv) == ({"cli", "errors"}, False)


def test_registry_and_stage_modules_agree():
    import inspect
    import pkgutil

    from stemexplain import stages
    from stemexplain.cli import STAGE_REGISTRY, STAGES

    modules = {info.name for info in pkgutil.iter_modules(stages.__path__)}
    assert modules == set(STAGE_REGISTRY) == set(STAGES)
    for name in STAGE_REGISTRY:
        body = importlib.import_module(f"stemexplain.stages.{name}").run
        assert list(inspect.signature(body).parameters) == ["config", "out"], name


def test_ingest_leaves_dataclasses_unloaded(tmp_path):
    record = {"id": "d1", "arxiv": ["math.AP"], "msc": [],
              "segments": [{"kind": "text", "content": "a wave"},
                           {"kind": "formula", "content": "<mi>u</mi>"}],
              "gold": {"entity_relevance": {"wave": 1}}}
    (tmp_path / "corpus.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    probe = ("import sys\n"
             "from stemexplain.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
             "sys.exit(code)\n")
    result = _python(probe, "ingest", "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--seed", "1", "--out-dir", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def _stemexplain(*argv: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """``python -m stemexplain *argv``, its stdout and stderr read through pipes.

    Without PYTHONUNBUFFERED, stdout to a pipe is block-buffered, so a line
    that was never flushed would be lost.
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(stemexplain.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "stemexplain", *argv], capture_output=True,
                          text=True, env=env, timeout=120, cwd=cwd)


def _records(stderr: str) -> list[dict]:
    """The JSON records on stderr; anything else on it (a traceback) fails the test."""
    return [json.loads(line) for line in stderr.splitlines()]


class TestProcessExit:
    """A stage process ends with ``os._exit`` once ``main`` returns; nothing it
    printed is lost, and an in-process ``main`` still returns its code."""

    @pytest.fixture(autouse=True)
    def _restore_blas_threads(self, monkeypatch):
        """An in-process ``entry`` sets the BLAS thread variables; undo that after."""
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)

    def test_success_line_arrives_through_a_pipe(self, tmp_path):
        result = _stemexplain("ingest", "--seed", "1", "--out-dir", str(tmp_path / "out"))
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "ingest: wrote ingest_summary.tsv, ingest_manifest.json\n"

    @pytest.mark.parametrize("argv, code, error", [
        (("ingest",), 2, "ConfigError"),
        (("ingest", "--seed", "1", "--corpus", "absent.jsonl"), 3, "ParseError"),
        (("plotdata", "--seed", "1", "--which", "symbol-name-distribution",
          "--symbol", "zz"), 2, "ConfigError"),
    ])
    def test_each_failure_prints_one_record(self, tmp_path, argv, code, error):
        result = _stemexplain(*argv, "--out-dir", str(tmp_path / "out"), cwd=tmp_path)
        assert result.returncode == code, result.stderr
        assert result.stdout == ""
        records = _records(result.stderr)
        assert len(records) == 1 and records[0]["error"] == error

    @pytest.mark.parametrize("name, data, code, error", [
        ("c.json", b'{"seed": 1, "corpus": "\xff"}', 2, "ConfigError"),
        ("corpus.jsonl", b'{"id": "d\xff"}\n', 3, "ParseError"),
    ])
    def test_bytes_that_are_not_utf8(self, tmp_path, name, data, code, error):
        (tmp_path / name).write_bytes(data)
        argv = ("-c", name) if name == "c.json" else ("--seed", "1", "--corpus", name)
        result = _stemexplain("ingest", *argv, "--out-dir", "out", cwd=tmp_path)
        assert result.returncode == code
        assert "Traceback" not in result.stderr
        records = _records(result.stderr)
        assert len(records) == 1 and records[0]["error"] == error
        assert "not valid UTF-8" in records[0]["message"]

    def test_convergence_warning_is_printed(self, tmp_path):
        (tmp_path / "c.json").write_text('{"seed": 1, "logreg": {"max_iterations": 1}}',
                                         encoding="utf-8")
        result = _stemexplain("classify", "-c", "c.json", "--out-dir", "out", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("classify: wrote ")
        records = _records(result.stderr)
        assert len(records) == 1 and records[0]["warning"] == "ConvergenceWarning"

    def test_in_process_main_returns_its_code(self, capsys, tmp_path, monkeypatch):
        def refuse(code):
            raise AssertionError(f"os._exit({code}) called")

        monkeypatch.setattr(os, "_exit", refuse)
        assert main(["ingest", "--seed", "1", "--out-dir", str(tmp_path / "out")]) == 0
        assert main(["ingest"]) == 2
        assert capsys.readouterr().out.startswith("ingest: wrote ")

    def test_entry_flushes_then_exits_with_the_code(self, monkeypatch):
        events = []

        class Stream:
            def __init__(self, name):
                self.name = name

            def flush(self):
                events.append(f"flush {self.name}")

        monkeypatch.setattr(cli, "main", lambda: events.append("main") or 3)
        monkeypatch.setattr(sys, "stdout", Stream("stdout"))
        monkeypatch.setattr(sys, "stderr", Stream("stderr"))
        monkeypatch.setattr(os, "_exit", lambda code: events.append(f"exit {code}"))
        cli.entry()
        assert events == ["main", "flush stdout", "flush stderr", "exit 3"]

    @pytest.mark.parametrize("failing", [RuntimeError, BrokenPipeError])
    def test_an_exception_keeps_the_usual_exit(self, monkeypatch, failing):
        class ClosedStdout:
            def flush(self):
                raise BrokenPipeError("closed")

        def broken_main():
            raise RuntimeError("escaped")

        if failing is RuntimeError:
            monkeypatch.setattr(cli, "main", broken_main)
        else:
            monkeypatch.setattr(cli, "main", lambda: 0)
            monkeypatch.setattr(sys, "stdout", ClosedStdout())
        monkeypatch.setattr(os, "_exit", lambda code: pytest.fail("os._exit called"))
        with pytest.raises(failing):
            cli.entry()


def test_script_and_dash_m_share_one_exit_function():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(stemexplain.__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as handle:
        script = tomllib.load(handle)["project"]["scripts"]["stemexplain"]
    tree = ast.parse(Path(stemexplain.__file__).with_name("__main__.py").read_text())
    imported = {alias.asname or alias.name: f"stemexplain.{node.module}:{alias.name}"
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    called = [node.value.func.id for node in tree.body
              if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)]
    assert len(called) == 1
    assert imported[called[0]] == script == "stemexplain.cli:entry"


def test_classify_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``classify`` writes the same bytes under one and two BLAS threads.

    The corpus has the shape of the bench's train-wide workload, wide
    enough that OpenBLAS splits its products across threads.  Without the
    pin in ``cli.entry`` the test fails only where at least 2 CPUs are
    available; on one CPU both runs use one thread.
    """
    from stemexplain import corpus, synth

    classes = ("astro-ph", "cond-mat", "gr-qc", "hep-lat", "hep-ph",
               "hep-th", "math-ph", "nlin", "quant-ph", "physics")
    docs = synth.generate_synthetic_corpus(synth.SynthConfig(
        classes=classes, docs_per_class=13, seed=1, tokens_per_doc=150,
        class_vocab_size=25, shared_vocab_size=1200, class_word_rate=0.05,
        class_symbol_count=1))
    corpus.save_corpus(docs, str(tmp_path / "corpus.jsonl"))
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(stemexplain.__file__).resolve().parents[1])
    written = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"out{threads}"
        result = subprocess.run(
            [sys.executable, "-m", "stemexplain", "classify", "--seed", "1",
             "--corpus", "corpus.jsonl", "--out-dir", out_dir.name], capture_output=True,
            text=True, env={**env, "OPENBLAS_NUM_THREADS": threads}, timeout=120, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        written.append({path.name: path.read_bytes() for path in out_dir.iterdir()})
    assert written[0] == written[1]
