"""report: ``report.md`` from the stage tables, and ``manifest.json`` over every file.

``manifest.json`` lists every other file but temp files with its digest;
like a stage manifest, it is removed before the first write and written last.
"""

from __future__ import annotations

from .. import __version__, cli
from ..errors import ParseError, read_utf8


def run(config: dict, out: cli.StageWriter) -> None:
    out_dir = out.out_dir
    missing = [name for _, name in cli.REPORT_SECTIONS if not (out_dir / name).is_file()]
    if missing:
        raise ParseError("missing stage outputs: " + ", ".join(missing)
                         + " (run the corresponding stages first)")
    digest = cli.config_digest(config)
    lines = [f"# {cli.TOOL_NAME} pipeline report", "",
             f"- seed: {config['seed']}",
             f"- config digest: `{digest}`", ""]
    for title, name in cli.REPORT_SECTIONS:
        text = read_utf8(out_dir / name).rstrip("\n")
        lines += [f"## {title}", "", "```", text, "```", ""]
    (out_dir / "manifest.json").unlink(missing_ok=True)
    out.file("report.md", lambda path: path.write_text("\n".join(lines), encoding="utf-8"))
    files = sorted(p.name for p in out_dir.iterdir()
                   if p.is_file() and not p.name.endswith(".partial"))
    out.json("manifest.json", {
        "tool": cli.TOOL_NAME,
        "version": __version__,
        "stage": "report",
        "seed": config["seed"],
        "config_digest": digest,
        "files": {name: cli._digest_file(out_dir / name) for name in files},
    })
