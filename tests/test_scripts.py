"""Smoke test of the example scripts, run as a user would from any directory."""

import os
import subprocess
import sys
from pathlib import Path

from tropical_kummer import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_scripts_run_and_write_to_the_working_directory(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    before = sorted(SCRIPTS.rglob("*"))
    runs = (("gram_gallery.py", "50", "0"), ("hexagonal_demo.py",))
    out = {}
    for script, *args in runs:
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / script), *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, (script, proc.stderr)
        out[script] = proc.stdout
    assert "re-verified unimodular on 25 irreducible draws" in out["gram_gallery.py"]
    assert (tmp_path / "kummer_hexagonal.off").read_text().startswith("OFF\n")
    assert sorted(SCRIPTS.rglob("*")) == before
