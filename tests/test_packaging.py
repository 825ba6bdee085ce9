import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_resolves_and_prints_help(capsys):
    # The installed `wastefactor` command calls this target; nothing else runs it.
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, attr = scripts["wastefactor"].partition(":")
    main = getattr(importlib.import_module(module), attr)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: wastefactor")
