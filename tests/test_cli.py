import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from conftest import cut_descent
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_kummer import cli, kummer, make_surface, verify
from tropical_kummer.errors import InternalInconsistencyError, NotAffineOnCellError

F = Fraction

HEX_GRAM = [["2", "-1"], ["-1", "2"]]


@pytest.fixture()
def hex_config(tmp_path):
    path = tmp_path / "hex.json"
    path.write_text(json.dumps({"gram": HEX_GRAM, "seed": 7, "samples": 25}))
    return str(path)


@pytest.fixture()
def product_config(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"gram": [["1", "0"], ["0", "1"]], "seed": 7}))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_output(capsys, hex_config):
    code, out, _ = run_cli(capsys, "classify", hex_config)
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "irreducible"
    assert payload["reduced_basis"] == {"u": ["1", "0"], "v": ["0", "1"]}
    assert payload["norms"] == {"uu": "2", "vv": "2", "uv": "-1"}


def test_voronoi_output(capsys, hex_config):
    code, out, _ = run_cli(capsys, "voronoi", hex_config)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "hexagon"
    assert len(payload["relevant_vectors"]) == 6
    assert ["-1/3", "-2/3"] in payload["vertices"]


def test_theta_output(capsys, hex_config):
    code, out, _ = run_cli(
        capsys, "theta", hex_config, "--char", "10", "--point", "0,0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1/2"


def test_embed_output(capsys, hex_config):
    code, out, _ = run_cli(
        capsys, "embed", hex_config, "--point", "1/2,0"
    )
    assert code == 0
    assert json.loads(out)["psi"] == ["-1/2", "0", "0"]


def test_point_with_leading_minus(capsys, hex_config):
    for cmd in (("theta", "--char", "11"), ("embed",), ("series", "--char", "11")):
        argv = (cmd[0], hex_config, *cmd[1:])
        joined = run_cli(capsys, *argv, "--point=-40,17/3")
        separate = run_cli(capsys, *argv, "--point", "-40,17/3")
        assert joined[0] == 0 and joined[1] != "", cmd
        assert separate == joined, cmd


def test_surface_json_output(capsys, hex_config):
    code, out, _ = run_cli(capsys, "surface", hex_config, "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"]["tau_0"] == ["1/2", "1/2", "1/2"]
    assert len(payload["vertices"]) == 8
    assert len(payload["faces"]) == 6
    assert payload["theta_constants"] == ["1/2", "1/2", "1/2"]


def test_surface_off_round_trip(capsys, hex_config):
    digits = 7
    code, out, _ = run_cli(
        capsys, "surface", hex_config, "--out", "off", "--precision", str(digits)
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "8 6 12"
    vertex_lines = lines[2:10]
    face_lines = lines[10:16]

    code, out, _ = run_cli(capsys, "surface", hex_config, "--out", "json")
    exact = json.loads(out)["vertices"]
    from tropical_kummer.kummer import VERTEX_LABELS

    tolerance = F(1, 10 ** (digits - 1))
    for label, line in zip(VERTEX_LABELS, vertex_lines):
        approx = [F(part) for part in line.split()]
        truth = [F(part) for part in exact[label]]
        assert all(abs(a - t) < tolerance for a, t in zip(approx, truth))

    v = [[F(part) for part in exact[label]] for label in VERTEX_LABELS]
    for line in face_lines:
        parts = line.split()
        assert parts[0] == "4"
        indices = [int(p) for p in parts[1:]]
        assert len(set(indices)) == 4
        assert all(0 <= i < 8 for i in indices)
        # A cycle round a parallelogram: its diagonals share their midpoint.
        i0, i1, i2, i3 = indices
        assert [a + c for a, c in zip(v[i0], v[i2])] == [
            b + d for b, d in zip(v[i1], v[i3])
        ]


# SHA-256 of `surface --out off --precision 12`, recorded while each face's
# cycle was searched for among its corners.
SURFACE_OFF_PRECISION12_SHA256 = {
    "hex": "26e20dab0aa6e59fbd968c3f646c7dd1cc2ba90b3b90734eb4fada6b8349a0aa",
    "skew": "81cc021ae8c389926d315cd534834639643b9649979dc902e8832c62fd675af2",
    "rational": "70c3d9d9a81fd0c1fb300f97fd0c10446c72e1c4c844f199f61c28f10071853b",
}
_OFF_GRAMS = {
    "hex": HEX_GRAM,
    "skew": [["2", "-1"], ["-1", "3"]],
    "rational": [["1/2", "-1/5"], ["-1/5", "3/7"]],
}


@pytest.mark.parametrize("name", list(_OFF_GRAMS))
def test_surface_off_pinned(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"gram": _OFF_GRAMS[name]}))
    code, out, _ = run_cli(
        capsys, "surface", str(path), "--out", "off", "--precision", "12"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        SURFACE_OFF_PRECISION12_SHA256[name]
    )


def test_series_output(capsys, hex_config):
    code, out, _ = run_cli(
        capsys, "series", hex_config, "--char", "00", "--point", "1/10,1/10"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "0"
    assert payload["cutoff"] >= 1

    code, out, _ = run_cli(
        capsys,
        "series",
        hex_config,
        "--char",
        "10",
        "--point",
        "0,0",
        "--cutoff",
        "3",
    )
    assert json.loads(out)["value"] == "1/2"


# Outputs recorded from the Fraction-per-term series and box oracles; the
# integer kernels must reproduce them byte for byte.
HEX_VERIFY_SEED7_SAMPLES50_SHA256 = (
    "ad3f0caf5fc29958538e8ff344358b2af85904f6fea104daec84532dd66ce8b8"
)
HEX_SERIES_11_OUTPUT = """{
  "char": "11",
  "constant_shift": "1/2",
  "cutoff": 7,
  "point": [
    "3/2",
    "-1/3"
  ],
  "terms": 225,
  "value": "-17/3"
}
"""


# `series` on diag(1, 10^4) at 5,5, recorded when every term was built one
# by one (1,022,121 terms, several seconds); the rows now cost O(cutoff).
DIAG_SERIES_00_OUTPUT = """{
  "char": "00",
  "constant_shift": "0",
  "cutoff": 505,
  "point": [
    "5",
    "5"
  ],
  "terms": 1022121,
  "value": "-250025"
}
"""


def test_series_pinned_on_ill_conditioned_gram(capsys, tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"gram": [["1", "0"], ["0", "10000"]]}))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "series", str(path), "--char", "00", "--point=5,5")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out == DIAG_SERIES_00_OUTPUT
    assert elapsed < 2.0


def test_series_cutoff_is_bounded(capsys, hex_config):
    # Both a given and a computed cutoff above the limit are input errors,
    # found before any series is built.
    runs = (
        ("--point", "0,0", "--cutoff", str(cli.MAX_SERIES_CUTOFF + 1)),
        ("--point", "0,0", "--cutoff", "-1"),
        ("--point=1000000000,1",),
        ("--point=-1e9,1/3",),
        ("--point=1e60,0",),
    )
    for extra in runs:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "series", hex_config, "--char", "11", *extra)
        elapsed = time.perf_counter() - start
        assert code == 2, extra
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error == {
            "type": "ValueError",
            "stage": "series",
            "message": error["message"],
        }
        assert "cutoff" in error["message"]
        assert elapsed < 0.5, extra


def test_off_precision_is_bounded(capsys, hex_config):
    # 4400 digits used to reach Python's int-to-str limit inside the
    # computation and exit 3.
    for digits in ("4400", str(cli.MAX_OFF_PRECISION + 1), "0"):
        code, out, err = run_cli(
            capsys, "surface", hex_config, "--out", "off", "--precision", digits
        )
        assert code == 2, digits
        assert out == ""
        error = json.loads(err)["error"]
        assert (error["type"], error["stage"]) == ("ValueError", "surface")
        assert "precision" in error["message"]
    code, out, _ = run_cli(
        capsys, "surface", hex_config, "--out", "off",
        "--precision", str(cli.MAX_OFF_PRECISION),
    )
    assert code == 0
    assert out.splitlines()[2].startswith("0.5000")


def test_verify_samples_are_bounded(capsys, monkeypatch, tmp_path):
    # A report's work is linear in the sample count, so a count above the
    # limit is an input error, found before any check runs.
    gram = json.dumps(HEX_GRAM)
    path = tmp_path / "config.json"
    too_many = str(cli.MAX_VERIFY_SAMPLES + 1)
    runs = (
        ('"samples": %s' % too_many, ()),
        ('"samples": "%s"' % too_many, ()),
        ('"samples": 0', ()),
        ('"samples": 2', ("--samples", too_many)),
        ('"samples": 2', ("--samples", "10000000000")),
        ('"samples": 2', ("--samples", "-1")),
    )
    for entries, extra in runs:
        path.write_text('{"gram": %s, %s}' % (gram, entries))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", str(path), *extra)
        assert (code, out) == (2, ""), (entries, extra)
        assert time.perf_counter() - start < 0.5, (entries, extra)
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        assert (error["type"], error["stage"]) == ("ValueError", "verify")
        assert "samples" in error["message"]
    # The limit itself is accepted, from either place, and reaches the suite.
    seen = []

    def stub(surface, seed, samples, progress):
        seen.append(samples)
        return verify.VerificationReport(surface.gram, seed, samples, "irreducible")

    monkeypatch.setattr(verify, "run_verification", stub)
    limit = str(cli.MAX_VERIFY_SAMPLES)
    path.write_text('{"gram": %s, "samples": %s}' % (gram, limit))
    assert run_cli(capsys, "verify", str(path))[0] == 0
    path.write_text('{"gram": %s}' % gram)
    assert run_cli(capsys, "verify", str(path), "--samples", limit)[0] == 0
    assert seen == [cli.MAX_VERIFY_SAMPLES] * 2


def test_pinned_outputs(capsys, hex_config):
    code, out, _ = run_cli(capsys, "verify", hex_config, "--samples", "50")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        HEX_VERIFY_SEED7_SAMPLES50_SHA256
    )
    code, out, _ = run_cli(
        capsys, "series", hex_config, "--char", "11", "--point", "3/2,-1/3"
    )
    assert code == 0
    assert out == HEX_SERIES_11_OUTPUT


# SHA-256 of `verify --samples 200` as the CLI prints it, on the two
# end-to-end configurations of the roadmap, recorded before the rows read
# their per-surface and per-point quantities once.
@pytest.mark.parametrize(
    "gram, seed, digest",
    [
        (HEX_GRAM, 7, "d86e365e6030584abd06f74b10e965e0a7a8608c95fdb42cead1e536f7ecb477"),
        (
            [["5", "3"], ["3", "2"]],
            3,
            "6880df9f75c9b1eb1f8a3204754ac694bc3d9a4642f52b463d9522fabf557298",
        ),
    ],
    ids=["hex", "5-3-3-2"],
)
def test_verify_200_samples_pinned(capsys, tmp_path, gram, seed, digest):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gram": gram}))
    code, out, _ = run_cli(
        capsys, "verify", str(path), "--seed", str(seed), "--samples", "200"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `verify` reports at seed 7 and 50 samples, serialized as the
# CLI prints them, recorded before the checks became one table of rows.
VERIFY_SEED7_SAMPLES50_SHA256 = {
    # The report that perfbench's `verify-hex` times and digests, the bytes
    # `test_pinned_outputs` reads through the CLI.
    "hex": HEX_VERIFY_SEED7_SAMPLES50_SHA256,
    "skew": "028d8ac167c8f1dff6392548c7e5e3c96601d064bc8a98c25c7d47c25226a749",
    "hidden-product": "388b2fc46d3cb172ecd14587b53b8642599b325bb4d69b938053cf274f88302e",
    "unit-square": "026826549bc196555371d424ae41ac490115e63a45ad4a24433fa360f295323b",
    "rational": "df475598bd6aedda758d09548ca68cf35ba909fe0d9b725e492ea127f80c0697",
    # The skew surface with its descent cut to +-u, +-v: ten checks fail,
    # two of them by raising, so counterexamples and failing case counts
    # are pinned too.  Concavity holds on the cut `theta_numerators`.
    "skew-descent-cut": "29113061ba1d25372e9a7bf20d013e1ca381c289de17d0ea15300a84ba9be305",
    # Recorded with the brute-force oracle's box enumerated term by term,
    # which took about 9 s on this ill-conditioned Gram.
    "diag(10^6,1)": "fa3f9d5a35737d6f318988884536fe0da643cc864736a00e600b671e6bcce2f1",
    # Recorded with the walk's rows pruned: walking every row of the box,
    # the series checks did not finish in 40 s each.  Every other row
    # matched that walk's report.
    "diag(1,10^12)": "a5200eebc8da3e3d9193c730e54dad15a43cf01e447ee6c4dd7dd21717a0853e",
}


_PINNED_SURFACES = {
    "hex": make_surface([[2, -1], [-1, 2]]),
    "skew": make_surface([[2, -1], [-1, 3]]),
    "hidden-product": make_surface([[5, 3], [3, 2]]),
    "unit-square": make_surface([[1, 0], [0, 1]]),
    "rational": make_surface([[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]]),
    "skew-descent-cut": cut_descent(make_surface([[2, -1], [-1, 3]])),
    "diag(10^6,1)": make_surface([[10**6, 0], [0, 1]]),
    "diag(1,10^12)": make_surface([[1, 0], [0, 10**12]]),
}


@pytest.mark.parametrize("name", list(_PINNED_SURFACES))
def test_verify_reports_pinned(name):
    report = verify.run_verification(_PINNED_SURFACES[name], seed=7, samples=50)
    assert report.passed == (name != "skew-descent-cut")
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        VERIFY_SEED7_SAMPLES50_SHA256[name]
    )


def test_verify_cut_descent_report_pinned_at_seed_8():
    # A second seed for the failing report: twelve checks fail at seed 8,
    # and eight checks' case counts differ from seed 7.
    surface = _PINNED_SURFACES["skew-descent-cut"]
    report = verify.run_verification(surface, seed=8, samples=50)
    assert not report.passed
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4df0fae1ad726a0b9f6230cc88eb61a2a47a6e11904a1e15555986c41a9c20fb"
    )


def test_input_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"gram": [["1", "2"], ["2", "1"]]}))
    code, out, err = run_cli(capsys, "classify", str(bad))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "NotPositiveDefiniteError"

    asym = tmp_path / "asym.json"
    asym.write_text(json.dumps({"gram": [["1", "2"], ["3", "1"]]}))
    code, _, err = run_cli(capsys, "classify", str(asym))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "NonSymmetricError"

    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "classify", str(missing))
    assert code == 2

    floaty = tmp_path / "floaty.json"
    floaty.write_text(json.dumps({"gram": [[2.0, -1.0], [-1.0, 2.0]]}))
    code, _, err = run_cli(capsys, "classify", str(floaty))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValueError"

    garbled = tmp_path / "garbled.json"
    garbled.write_text('{"gram": [["2", "-1"],')
    code, _, err = run_cli(capsys, "classify", str(garbled))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "JSONDecodeError"


def test_huge_rationals_exit_2(capsys, hex_config, tmp_path):
    # Each used to print an integer of more than 4300 digits, which Python
    # refuses (exit 3); 1e99999999 is refused before 10^99999999 is built.
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"gram": [["1e5000", "0"], ["0", "1"]]}))
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps({"gram": [["1e99999999", "0"], ["0", "1"]]}))
    for argv in (
        ["classify", str(huge)],
        ["classify", str(slow)],
        ["theta", hex_config, "--char", "00", "--point=1/3,1e-5000"],
        ["series", hex_config, "--char", "11", "--point", "1/3,-1e-99999999"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "ValueError", argv
    edge = tmp_path / "edge.json"  # 300 digits up and down still read
    edge.write_text(json.dumps({"gram": [["9" * 300, "0"], ["0", "1/" + "9" * 300]]}))
    assert run_cli(capsys, "classify", str(edge))[0] == 0


def test_surface_rejects_product_type(capsys, product_config):
    code, _, err = run_cli(capsys, "surface", product_config)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ProductTypeError"


def test_verify_passes_and_is_deterministic(capsys, hex_config):
    code1, out1, _ = run_cli(capsys, "verify", hex_config)
    code2, out2, _ = run_cli(capsys, "verify", hex_config)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True
    names = {check["name"] for check in payload["checks"]}
    assert "series-lift-consistency" in names
    assert all(check["status"] != "fail" for check in payload["checks"])


def test_verify_seed_changes_report(capsys, hex_config, tmp_path):
    code, out_seed7, _ = run_cli(capsys, "verify", hex_config)
    code, out_seed8, _ = run_cli(capsys, "verify", hex_config, "--seed", "8")
    assert json.loads(out_seed8)["config"]["seed"] == 8
    assert json.loads(out_seed7)["config"]["seed"] == 7


def test_cli_subprocess_entry_point(hex_config):
    # The child imports the same package as this process, whatever the
    # parent's PYTHONPATH.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "tropical_kummer", "classify", hex_config],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["class"] == "irreducible"


def _spawn(argv, lost=None, how="closed"):
    """The CLI in a child process, stdout and stderr captured; descriptor
    `lost` (1 or 2), if given, is closed before the child starts, or is a pipe
    whose reader has gone (`how` "broken").  The child's streams are buffered,
    as they are by default, so a failed write leaves bytes for its exit flush."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    streams, preexec, broken = {1: subprocess.PIPE, 2: subprocess.PIPE}, None, None
    if lost is not None and how == "closed":
        streams[lost], preexec = subprocess.DEVNULL, lambda: os.close(lost)
    elif lost is not None:
        read, streams[lost] = broken = os.pipe()
        os.close(read)
    argv = [sys.executable, "-m", "tropical_kummer", *argv]
    try:
        return subprocess.run(
            argv, stdout=streams[1], stderr=streams[2], env=env, preexec_fn=preexec
        )
    finally:
        if broken is not None:
            os.close(broken[1])


def test_a_lost_stream_keeps_the_outcome(hex_config, tmp_path):
    # Stderr carries only diagnostics: lost, it changes neither stdout nor the
    # exit code (the interpreter's own flush at exit included, which exits 120
    # when it fails).  Lost stdout is the command's output: exit 3, saying so.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"gram": [["1", "2"], ["2", "1"]]}))
    check = ["verify", hex_config, "--samples", "5"]
    report = _spawn(check).stdout
    assert json.loads(report)["passed"] is True
    runs = (
        (check, 0, report),
        (["classify", str(bad)], 2, b""),
        (["classify", str(tmp_path / "missing.json")], 2, b""),
    )
    for (argv, code, out), how in product(runs, ("closed", "broken")):
        proc = _spawn(argv, 2, how)
        assert (proc.returncode, proc.stdout) == (code, out), (argv, how)
    for how in ("closed", "broken"):
        proc = _spawn(["classify", hex_config], 1, how)
        assert proc.returncode == 3, how
        (line,) = proc.stderr.decode().splitlines()
        error = json.loads(line)["error"]
        assert (error["type"], error["stage"]) == ("OutputError", "classify")
        assert error["message"].startswith("could not write the output to stdout: ")


# Runs the CLI as `python -m tropical_kummer` does, then lists sys.modules.
_MODULES_AFTER_RUN = """
import runpy, sys
try:
    runpy.run_module("tropical_kummer", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("\\nMODULES " + " ".join(sorted(sys.modules)) + "\\n")
"""

# What a spawn of any command but verify must not import: the verify suite,
# its sampling (hashlib, random), the record decorator's inspect machinery,
# and typing, which annotations do not need.
NEVER_IMPORTED = (
    "dataclasses",
    "inspect",
    "typing",
    "hashlib",
    "random",
    "tropical_kummer.verify",
    "tropical_kummer.sampling",
)


def test_cli_spawn_imports_only_what_its_command_needs(hex_config):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    runs = (
        (["classify", hex_config], 0),
        (["theta", hex_config, "--char", "10", "--point", "1/2,0"], 0),
        (["surface", hex_config, "--out", "json"], 0),
        (["verify", hex_config, "--samples", "2"], 0),
    )
    imported = {}
    for argv, code in runs:
        # -S: no site module, whose .pth files may import random themselves.
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _MODULES_AFTER_RUN, *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == code, proc.stderr
        imported[argv[0]] = set(proc.stderr.rsplit("MODULES ", 1)[1].split())
    for command in ("classify", "theta", "surface"):
        assert "tropical_kummer.cli" in imported[command]
        assert sorted(imported[command].intersection(NEVER_IMPORTED)) == []
    assert "tropical_kummer.verify" in imported["verify"]


def test_zero_denominator_exits_2(capsys, hex_config, tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"gram": [["1/0", "0"], ["0", "1"]]}))
    runs = (
        ("classify", str(zero)),
        ("theta", hex_config, "--char", "00", "--point=1/0,0"),
        ("embed", hex_config, "--point", "0,-3/0"),
        ("series", hex_config, "--char", "11", "--point", "1/0,1"),
    )
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ValueError"
        assert error["stage"] == argv[0]
        assert "zero denominator" in error["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("theta", "HEX", "--char", "2", "--point", "0,0"),
         "characteristic must be two bits, got '2'"),
        (("series", "HEX", "--char", "012", "--point", "0,0"),
         "characteristic must be two bits, got '012'"),
        (("embed", "HEX", "--point", "1,2,3"), "point must be 'x1,x2', got '1,2,3'"),
    ],
    ids=["theta-char", "series-char", "embed-point"],
)
def test_bad_characteristic_or_point_exits_2(capsys, hex_config, argv, message):
    code, out, err = run_cli(capsys, *[hex_config if a == "HEX" else a for a in argv])
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error == {"type": "ValueError", "stage": argv[0], "message": message}


@pytest.mark.parametrize(
    "argv, stage, phrase",
    [
        (("surface", "HEX", "--precision", "abc"), "surface", "invalid int value"),
        (("theta", "HEX", "--char", "00"), "theta", "--point"),
        (("verify", "HEX", "--samples", "1.5"), "verify", "invalid int value"),
        (("bogus", "HEX"), "args", "invalid choice"),
        ((), "args", "required"),
    ],
)
def test_argument_errors_exit_2(capsys, hex_config, argv, stage, phrase):
    # argparse's own errors keep the one-JSON-line contract of exit 2.
    argv = [hex_config if a == "HEX" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert (error["type"], error["stage"]) == ("ArgumentError", stage)
    assert phrase in error["message"]


@pytest.mark.parametrize(
    "error",
    [
        InternalInconsistencyError,
        NotAffineOnCellError,
        ZeroDivisionError,
        RuntimeError,
        # Raised by the computation, not while reading the input: a bug.
        KeyError,
        TypeError,
        ValueError,
    ],
)
def test_internal_errors_exit_3(capsys, monkeypatch, hex_config, error):
    def broken(surface, point):
        raise error("two computations disagree")

    monkeypatch.setattr(kummer, "psi_eval", broken)
    code, out, err = run_cli(capsys, "embed", hex_config, "--point", "0,0")
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": {
            "type": error.__name__,
            "stage": "embed",
            "message": str(error("two computations disagree")),
        }
    }


def test_raising_check_is_recorded(capsys, monkeypatch, hex_config):
    def broken(surface, seed, samples):
        raise ZeroDivisionError("boom")

    checks = list(verify.CHECKS)
    index = [check.name for check in checks].index("cvp-descent-oracle")
    checks[index] = verify.Check("cvp-descent-oracle", broken)
    monkeypatch.setattr(verify, "CHECKS", tuple(checks))
    report = verify.run_verification(make_surface(HEX_GRAM), seed=7, samples=5)
    assert len(report.checks) == 27
    failed = report.checks[index]
    assert failed.name == "cvp-descent-oracle"
    assert failed.status == "fail"
    assert failed.counterexample == {"exception": "ZeroDivisionError", "message": "boom"}
    assert "ZeroDivisionError" in failed.traceback
    others = {c.name: c.status for c in report.checks if c is not failed}
    assert set(others.values()) == {"pass", "skip"}
    assert others["psi-product-collapse"] == "skip"  # the hexagon is irreducible
    assert not report.passed

    code, out, err = run_cli(capsys, "verify", hex_config, "--samples", "5")
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert "ZeroDivisionError: boom" in err


def test_verify_config_seed_and_samples_must_be_integers(capsys, tmp_path):
    # A float or a bool used to be truncated (samples 1.9 and seed true ran
    # as 1 and 1, and the report echoed them), and an infinite one to exit 3
    # with an OverflowError.
    gram = json.dumps(HEX_GRAM)
    runs = (
        ('"samples": 1.9, "seed": true', ()),
        ('"seed": 1e400', ("--samples", "1")),
        ('"seed": Infinity', ("--samples", "1")),
        ('"seed": -Infinity', ("--samples", "1")),
        ('"seed": 2.0', ("--samples", "1")),
        ('"samples": Infinity', ("--seed", "1")),
        ('"samples": true', ("--seed", "1")),
    )
    path = tmp_path / "config.json"
    for entries, extra in runs:
        path.write_text('{"gram": %s, %s}' % (gram, entries))
        code, out, err = run_cli(capsys, "verify", str(path), *extra)
        assert (code, out) == (2, ""), entries
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        assert (error["type"], error["stage"]) == ("ValueError", "verify"), entries
        assert "must be an integer" in error["message"], entries
    # JSON integers and integer strings still read, as the options would.
    reports = []
    for entries in ('"seed": 8, "samples": 2', '"seed": "8", "samples": " 2 "'):
        path.write_text('{"gram": %s, %s}' % (gram, entries))
        reports.append(run_cli(capsys, "verify", str(path))[:2])
    path.write_text('{"gram": %s}' % gram)
    options = run_cli(capsys, "verify", str(path), "--seed", "8", "--samples", "2")
    assert reports == [options[:2]] * 2
    assert json.loads(options[1])["config"]["samples"] == 2


# The CLI reading contract, fuzzed: on any input a command exits 0, 1 or 2,
# and exit 2 prints one JSON line on stderr and nothing on stdout.
_COMMANDS = ("classify", "voronoi", "theta", "embed", "surface", "series", "verify")
_SMALL = st.fractions(min_value=-20, max_value=20, max_denominator=12).map(str)
# At the 300-digit limit of an input rational, so read.
_HUGE = st.sampled_from(
    ["9" * 300, "-1/" + "9" * 300, "7" * 300 + "/" + "3" * 299, "1e299", "-1e-299"]
)
# Past the limit, or not a rational at all: exit 2 before any computation.
_REJECTED = st.sampled_from(
    ["9" * 301, "1/" + "7" * 301, "1e5000", "-1e-400", "1e99999999"]
    + ["", "abc", "1/0", "1//2", "nan", "inf", "1e", "0x10", "1/2/3", "\u00bd", " "]
)
# JSON values of the wrong type for a Gram entry.
_JUNK = st.sampled_from([None, True, 2.5, [], {}, 10**400])
_BAD_GRAMS = st.sampled_from(
    [[["1", "0"]], [["1", "0"], ["0"]], [["1", "0", "0"]] * 3, "hex", 5, None, {}]
)
_BAD_CONFIGS = st.sampled_from(
    ["[]", '"gram"', "3", "null", "{}", '{"gram": [["2", "-1"],', '{"Gram": 1}']
)


def _grams(entries):
    """Symmetric 2x2 arrays of `entries`."""
    return st.tuples(entries, entries, entries).map(
        lambda e: [[e[0], e[1]], [e[1], e[2]]]
    )


@st.composite
def _definite_grams(draw, bound):
    """Positive definite integer Grams with entries up to `bound`."""
    a, d = draw(st.integers(1, bound)), draw(st.integers(1, bound))
    top = math.isqrt(a * d - 1)
    entries = (a, draw(st.integers(-top, top)), d)
    if draw(st.booleans()):
        entries = tuple(map(str, entries))
    return [[entries[0], entries[1]], [entries[1], entries[2]]]


@st.composite
def _invocations(draw):
    """(argv after the config path, config text or None for a missing file).

    `theta` and `embed` get integer Grams up to 10^3 and points up to 10^4,
    and `verify` entries up to 9 and at most 3 samples: `descend` takes a
    number of steps linear in the reduced coordinates (ROADMAP item 2).
    """

    def often(good, bad, odds=6):
        """Draw from `good`, or from `bad` one time in `odds`."""
        return draw(bad if draw(st.integers(1, odds)) == odds // 2 else good)

    command = draw(st.sampled_from(_COMMANDS))
    if command in ("theta", "embed"):
        entry = st.integers(-(10**3), 10**3)
        definite = _definite_grams(10**3)
        fractions = st.fractions(-(10**4), 10**4, max_denominator=10**6)
        coordinate = st.one_of(fractions.map(str), st.just("-1/" + "9" * 300))
    elif command == "verify":
        entry = st.fractions(-9, 9, max_denominator=3).map(str)
        definite = _definite_grams(9)
    else:
        entry = st.one_of(_SMALL, _HUGE, st.integers(-(10**3), 10**3))
        definite = st.one_of(_definite_grams(10**3), _grams(entry))
        coordinate = st.one_of(_SMALL, _HUGE)
    rejected = st.one_of(_REJECTED, _JUNK)
    bad = st.one_of(_grams(entry), _grams(st.one_of(entry, rejected)), _BAD_GRAMS)
    config = {"gram": often(definite, bad)}

    argv = [command]
    if command in ("theta", "series"):
        chars = st.sampled_from(["00", "10", "01", "11"])
        bad_chars = st.sampled_from([[], ["--char", "2"], ["--char", "011"]])
        argv += often(chars.map(lambda c: ["--char", c]), bad_chars)
    if command in ("theta", "embed", "series"):
        coordinates = st.tuples(coordinate, coordinate)
        bad = st.one_of(
            st.tuples(coordinate, _REJECTED),
            st.tuples(_REJECTED, coordinate),
            st.sampled_from([("1",), ("1", "2", "3"), ("",), ("a", "b")]),
        )
        point = ",".join(often(coordinates, bad))
        argv += draw(st.sampled_from([["--point", point], ["--point=" + point]]))
    if command == "series":
        cutoffs = st.sampled_from([[], ["--cutoff", "0"], ["--cutoff", "7"]])
        too_far = str(cli.MAX_SERIES_CUTOFF + 1)
        bad = st.sampled_from(["-1", too_far, "x"]).map(lambda c: ["--cutoff", c])
        argv += often(cutoffs, bad)
    if command == "surface":
        outs = st.sampled_from([[], ["--out", "json"], ["--out", "off"]])
        argv += often(outs, st.just(["--out", "xml"]))
        precisions = st.integers(1, cli.MAX_OFF_PRECISION).map(str)
        bad = st.sampled_from(["0", str(cli.MAX_OFF_PRECISION + 1), "x"])
        if draw(st.booleans()):
            argv += ["--precision", often(precisions, bad)]
    if command == "verify":  # seed and samples each from the config or an option
        wrong = [1.9, True, math.inf, -math.inf, None, "2.5", [], "9" * 5000]
        values = {
            "seed": [0, -3, 10**20, "5", *wrong],
            "samples": [1, 3, " 2", 0, -1, *wrong],
        }
        options = {
            "seed": ["-3", "0", "10000000000", "1.5"],
            "samples": ["1", "2", "3", "0", "1.9"],
        }
        for key in ("seed", "samples"):
            if draw(st.booleans()):
                config[key] = draw(st.sampled_from(values[key]))
            elif key == "samples" or draw(st.booleans()):
                argv += ["--" + key, draw(st.sampled_from(options[key]))]
    text = often(st.just(json.dumps(config)), st.one_of(_BAD_CONFIGS, st.none()))
    return argv, text


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_invocations())
def test_cli_reading_contract(fuzz_dir, invocation):
    rest, config = invocation
    path = fuzz_dir / ("config.json" if config is not None else "missing.json")
    if config is not None:
        path.write_text(config)
    argv = [rest[0], str(path), *rest[1:]]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, (argv, config, elapsed)
    assert code in (0, 1, 2), (argv, config, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
        (line,) = err.getvalue().splitlines()
        error = json.loads(line)["error"]
        assert sorted(error) == ["message", "stage", "type"]
        assert error["stage"] == rest[0]
    else:
        assert out.getvalue() != ""
        assert code == 0 or rest[0] == "verify"
