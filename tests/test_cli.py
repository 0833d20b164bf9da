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

    for line in face_lines:
        parts = line.split()
        assert parts[0] == "4"
        indices = [int(p) for p in parts[1:]]
        assert len(set(indices)) == 4
        assert all(0 <= i < 8 for i in indices)


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


# SHA-256 of `verify` reports at seed 7 and 50 samples, serialized as the
# CLI prints them, recorded before the checks became one table of rows.
VERIFY_SEED7_SAMPLES50_SHA256 = {
    "skew": "028d8ac167c8f1dff6392548c7e5e3c96601d064bc8a98c25c7d47c25226a749",
    "hidden-product": "388b2fc46d3cb172ecd14587b53b8642599b325bb4d69b938053cf274f88302e",
    "unit-square": "026826549bc196555371d424ae41ac490115e63a45ad4a24433fa360f295323b",
    "rational": "df475598bd6aedda758d09548ca68cf35ba909fe0d9b725e492ea127f80c0697",
    # The skew surface with its descent cut to +-u, +-v: eleven checks fail,
    # two of them by raising, so counterexamples and failing case counts
    # are pinned too.
    "skew-descent-cut": "d91f8e17a5de3be27c1c5a4de5393dc3facda337ce56e0e1354ca1b38eae4f53",
    # Recorded with the brute-force oracle's box enumerated term by term,
    # which took about 9 s on this ill-conditioned Gram.
    "diag(10^6,1)": "fa3f9d5a35737d6f318988884536fe0da643cc864736a00e600b671e6bcce2f1",
}


_PINNED_SURFACES = {
    "skew": make_surface([[2, -1], [-1, 3]]),
    "hidden-product": make_surface([[5, 3], [3, 2]]),
    "unit-square": make_surface([[1, 0], [0, 1]]),
    "rational": make_surface([[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]]),
    "skew-descent-cut": cut_descent(make_surface([[2, -1], [-1, 3]])),
    "diag(10^6,1)": make_surface([[10**6, 0], [0, 1]]),
}


@pytest.mark.parametrize("name", list(_PINNED_SURFACES))
def test_verify_reports_pinned(name):
    report = verify.run_verification(_PINNED_SURFACES[name], seed=7, samples=50)
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        VERIFY_SEED7_SAMPLES50_SHA256[name]
    )


def test_verify_cut_descent_report_pinned_at_seed_8():
    # A second seed for the failing report: twelve checks fail at seed 8,
    # and nine checks' case counts differ from seed 7.
    surface = _PINNED_SURFACES["skew-descent-cut"]
    report = verify.run_verification(surface, seed=8, samples=50)
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3d96b4ec7fff7493c54779f95e0ece2d3c63e9bb22b9767bfbbb9ba65b081e39"
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
