"""The README's Python examples run as written."""
from __future__ import annotations

import re
from pathlib import Path

from subthz_chan import SynthesisParams, render_campaign

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_python_examples_run_in_order(tmp_path, monkeypatch, capsys):
    # the examples read campaign/manifest.json, as rendered by the quick start's `synth`
    render_campaign(SynthesisParams(), 50, 42, tmp_path / "campaign")
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace: dict = {}
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index + 1}", "exec"), namespace)
    assert capsys.readouterr().out
