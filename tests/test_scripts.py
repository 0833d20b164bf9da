"""Smoke test of the example scripts, run as a user would from any directory."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from tropical_kummer import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_scripts_run_and_write_to_the_working_directory(tmp_path, capsys):
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
    # The demo's mesh is the one `surface --out off` prints.
    config = tmp_path / "hex.json"
    config.write_text('{"gram": [["2", "-1"], ["-1", "2"]]}')
    assert cli.main(["surface", str(config), "--out", "off", "--precision", "12"]) == 0
    assert (tmp_path / "kummer_hexagonal.off").read_text() == capsys.readouterr().out


def _private(name):
    return any(
        part.startswith("_") and not part.endswith("__") for part in name.split(".")
    )


def test_scripts_import_only_public_names():
    for path in sorted(SCRIPTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            assert not any(map(_private, names)), (path.name, node.lineno, names)
