import os
import re
import subprocess
import sys
from pathlib import Path

import wastefactor

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs_and_prints_what_its_comments_say():
    # The one ```python block of the README, run as a user would paste it,
    # in a fresh interpreter where any warning is an error.
    (code,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    src = str(Path(wastefactor.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    out = run.stdout.splitlines()
    assert out[:3] == ["4.2", "210.0", "3.479 18.7"]
    assert out[4] == "3.5 140.0"
    assert len(out) == 6
