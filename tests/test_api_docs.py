"""Keep docs/API.md in sync with the public surface.

Fails when an API change was not followed by
``python tools/gen_api_docs.py`` — the release discipline that keeps
the generated reference trustworthy.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", ROOT / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestApiDocs:
    def test_generated_doc_is_current(self):
        generator = _load_generator()
        expected = generator.generate()
        committed = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
        assert committed == expected, (
            "docs/API.md is stale; run `python tools/gen_api_docs.py`"
        )

    def test_doc_covers_core_names(self):
        text = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
        for name in ("MSCE", "mccore_new", "signed_conductance", "enumerate_signed_cliques"):
            assert name in text

    def test_cli_rejects_arguments_without_writing(self, tmp_path, monkeypatch, capsys):
        generator = _load_generator()
        output = tmp_path / "API.md"
        monkeypatch.setattr(generator, "OUTPUT", output)
        with pytest.raises(SystemExit) as exit_info:
            generator.main(["--help"])
        assert exit_info.value.code == 0
        assert "usage:" in capsys.readouterr().out
        assert not output.exists()
        with pytest.raises(SystemExit) as exit_info:
            generator.main(["--no-such-flag"])
        assert exit_info.value.code != 0
        assert not output.exists()
        assert generator.main([]) == 0
        assert output.read_text(encoding="utf-8") == generator.generate()
