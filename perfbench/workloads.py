"""The workloads: seeded inputs and one timed, closed-loop batch each.

A batch is the workload's fixed unit of work: one ``verify`` report for
``verify-hex``, a fixed list of library requests for ``embed-pool``
and a fixed list of CLI spawns for ``cli-oneshot``.  Every batch starts with
the program's caches emptied, so repeated batches in one run do the same
work and a batch costs what a fresh process pays.

Inputs come from ``--seed`` only through ``variant = seed % VARIANTS``, so
the digest of every batch's outputs can be recorded in ``expected.json``
ahead of time for every seed.  The ``verify-hex`` inputs do not depend on the
seed at all (``seeded = False``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from calibrate import MIXED_NOMINAL_S, SPAWN_NOMINAL_S, Calibrator, clock, mixed_reference, spawn_reference
from program import spawn_env

VARIANTS = 16

HEX_GRAM = ((2, -1), (-1, 2))

# The verify suite's checks, in report order; per-check times are reported
# under these names.
CHECK_NAMES = (
    "gram-symmetry",
    "gram-positivity",
    "unimodular-invariance",
    "dual-basis-integrality",
    "reduction-invariants",
    "classify-congruence-invariance",
    "voronoi-geometry",
    "cvp-descent-oracle",
    "reduce-idempotence",
    "theta-zero-on-cell",
    "theta-evenness",
    "theta-quasi-periodicity",
    "theta-translation-identities",
    "theta-concavity",
    "theta-minimizer-attained",
    "theta-bruteforce-oracle",
    "descent-datum-cocycle",
    "series-lift-consistency",
    "series-quasi-periodicity",
    "series-cutoff-stability",
    "quartic-structure",
    "quartic-coverage",
    "psi-injectivity-mod-sign",
    "psi-product-collapse",
    "affine-unimodularity",
    "coplanarity-table",
    "subdivision-geometry",
)


@dataclass
class Batch:
    """Outcome of one batch: its wall time, per-op latencies and output digest.

    ``wall_s`` and ``latencies_s`` are raw; ``scaled_wall_s`` and
    ``scaled_s`` are the same times scaled to the reference speed (see
    ``calibrate``), and ``slowness`` is how slow the host ran meanwhile.
    """

    wall_s: float
    latencies_s: list[float]
    attempted: int
    failed: int
    digest: str
    detail: dict = field(default_factory=dict)
    scaled_s: list[float] = field(default_factory=list)
    scaled_wall_s: float = 0.0
    slowness: float = 0.0

    def scale(self, cal: Calibrator) -> "Batch":
        self.scaled_s, self.scaled_wall_s = cal.end(self.wall_s)
        self.slowness = cal.slowness()
        return self


def rng_for(workload: str, variant: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{variant}")


def _fraction(rng: random.Random, bound: int, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-bound * den, bound * den), den)


def _point(rng: random.Random, bound: int) -> tuple[Fraction, Fraction]:
    return (_fraction(rng, bound), _fraction(rng, bound))


def _far_point(rng: random.Random, bound: int) -> tuple[Fraction, Fraction]:
    """A point whose coordinates have absolute values in [bound/2, bound]."""
    coords = []
    for _ in range(2):
        den = rng.randint(1, 12)
        num = rng.randint(bound * den // 2, bound * den)
        coords.append(Fraction(rng.choice((num, -num)), den))
    return tuple(coords)


def _request(Vec2, gram, draw, rng: random.Random) -> tuple:
    """One embed request: a Gram, an injectivity pair and a psi point."""
    y = draw()
    # The pair generator of acceptance criterion 6: y' = +-y + a lattice
    # vector with entries in [-3, 3], or an independent point.
    mode = rng.randrange(3)
    if mode == 2:
        yp = draw()
    else:
        sign = 1 if mode == 0 else -1
        yp = tuple(sign * c + rng.randint(-3, 3) for c in y)
    return (gram, Vec2(*y), Vec2(*yp), Vec2(*draw()))


def _fresh_state(program) -> None:
    program.clear_caches()
    gc.collect()


class VerifyWorkload:
    """The release ``verify`` suite on one fixed Gram matrix, seed and size.

    The suite's seed stays fixed whatever the workload seed: the suite draws
    its own random surfaces from it, and their cost alone moves ``wall_s``
    by a third between suite seeds.
    """

    SUITE_SEED = 7
    seeded = False
    spawns = False

    def __init__(self, name: str, gram, samples: int):
        self.name = name
        self.gram = gram
        self.samples = samples
        self.ops = len(CHECK_NAMES)

    def make_inputs(self, program, variant: int, root: Path) -> dict:
        return {"seed": self.SUITE_SEED, "samples": self.samples}

    def run_batch(self, program, inputs: dict, tracer=None) -> Batch:
        _fresh_state(program)

        cal = Calibrator()

        def next_check(check):
            cal.op(check.elapsed)
            if tracer is not None:
                tracer.op += 1

        if tracer is not None:
            tracer.op = 0
        cal.begin()
        start = clock()
        surface = program.lattice.make_surface(self.gram)
        report = program.verify.run_verification(
            surface, seed=inputs["seed"], samples=inputs["samples"], progress=next_check
        )
        wall = clock() - start
        text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        checks = {c.name: c.elapsed for c in report.checks}
        failed = sum(1 for c in report.checks if c.status == "fail")
        return Batch(
            wall_s=wall,
            latencies_s=list(checks.values()),
            attempted=len(report.checks),
            failed=failed,
            digest=hashlib.sha256(text.encode()).hexdigest(),
            detail={"checks": checks},
        ).scale(cal)


class EmbedPoolWorkload:
    """Library throughput: surface rebuild, one injectivity pair, one psi.

    The pool holds every ``stride``-th Lagrange-reduced irreducible form
    with 2 <= a <= 9 and d <= 12, each conjugated by a fixed unimodular matrix
    (every shear -3..3 equally often) so reduction has work to do.  Each
    Gram is requested ten times: nine times with points |x| <= 3 and once
    with points B/2 <= |x_i| <= B, where the bounds B step evenly up to 10^4
    (the closest-vector descent is slow there).  Descent cost varies
    fivefold between Grams and by a quarter with the far point's size,
    signs and pairing, and the slowest few far requests set ``op_tail_ms``.
    So the pool and the far requests are fixed; the seed draws the near
    points and the order of the requests.
    """

    name = "embed-pool"
    seeded = True
    spawns = False
    # (a, b, d) with |2b| <= a <= d is reduced; b != 0 makes the cell a hexagon.
    FORMS = tuple(
        (a, b, d)
        for a in range(2, 10)
        for d in range(a, 13)
        for b in range(-(a // 2), a // 2 + 1)
        if b != 0
    )
    NEAR, FAR = 3, 10**4

    def __init__(self, stride: int):
        self.forms = self.FORMS[::stride]
        self.ops = 10 * len(self.forms)

    def _pool(self) -> list[tuple]:
        pool = []
        for i, (a, b, d) in enumerate(self.forms):
            p, q = i % 7 - 3, (1, -1)[i // 7 % 2]
            # G' = U^T G U with U = [[1, p], [0, q]].
            c = a * p + b * q
            pool.append(((a, c), (c, a * p * p + 2 * b * p * q + d)))
        return pool

    def make_inputs(self, program, variant: int, root: Path) -> dict:
        rng = rng_for(self.name, variant)
        pool = self._pool()
        n = len(pool)
        # Bound of Gram i's far request: a fixed stride through the ladder,
        # so bound and form size are not correlated.
        far = [-(-self.FAR * ((97 * i) % n + 1) // n) for i in range(n)]
        far_rng = rng_for(self.name, "far")
        Vec2 = program.exact.Vec2
        requests = [
            _request(Vec2, gram, lambda: _far_point(far_rng, bound), far_rng)
            for gram, bound in zip(pool, far)
        ]
        requests += [
            _request(Vec2, gram, lambda: _point(rng, self.NEAR), rng)
            for gram in pool
            for _ in range(9)
        ]
        rng.shuffle(requests)
        return {"requests": requests}

    def run_batch(self, program, inputs: dict, tracer=None) -> Batch:
        _fresh_state(program)
        make_surface = program.lattice.make_surface
        injectivity_check = program.kummer.injectivity_check
        psi_eval = program.kummer.psi_eval
        cal = Calibrator(mixed_reference, MIXED_NOMINAL_S)
        latencies, outputs = [], []
        failed = 0
        cal.begin()
        start = clock()
        for k, (gram, y, yp, z) in enumerate(inputs["requests"]):
            if tracer is not None:
                tracer.op = k
            t0 = clock()
            try:
                surface = make_surface(gram)
                verdict = injectivity_check(surface, y, yp)
                psi = psi_eval(surface, z)
            except Exception as exc:  # a failed request is counted, not fatal
                latencies.append(clock() - t0)
                cal.op(latencies[-1])
                outputs.append(f"error {type(exc).__name__}")
                failed += 1
                continue
            latencies.append(clock() - t0)
            cal.op(latencies[-1])
            outputs.append((verdict, psi))
        wall = clock() - start
        h = hashlib.sha256()
        for out in outputs:
            if isinstance(out, str):
                line = out
            else:
                verdict, psi = out
                line = f"{type(verdict).__name__} {psi.x} {psi.y} {psi.z}"
            h.update(line.encode() + b"\n")
        return Batch(wall, latencies, len(latencies), failed, h.hexdigest()).scale(cal)


class CliOneShotWorkload:
    """Sequential ``python -m tropical_kummer`` spawns on the hexagonal config.

    A spawn is mostly process start, file reads and page faults, so its
    time is scaled by a bare interpreter spawn timed after each op, not by
    the in-process kernel.

    Each cycle runs the seven non-verify subcommands once, with points and
    characteristics drawn from the seed.  The traced batch adds probes that
    split a spawn into interpreter start, package import and the command.
    """

    name = "cli-oneshot"
    seeded = True
    spawns = True

    def __init__(self, cycles: int):
        self.cycles = cycles
        self.ops = 7 * cycles

    def make_inputs(self, program, variant: int, root: Path) -> dict:
        rng = rng_for(self.name, variant)
        work = root / ".bench_build" / "perfbench"
        work.mkdir(parents=True, exist_ok=True)
        config = work / "hex.json"
        gram = [[str(e) for e in row] for row in HEX_GRAM]
        config.write_text(json.dumps({"gram": gram}) + "\n", encoding="utf-8")
        cfg = str(config)
        commands = []
        for _ in range(self.cycles):
            x, y = _point(rng, 3)
            point = f"{x},{y}"
            char = rng.choice(("00", "10", "01", "11"))
            commands += [
                ["classify", cfg],
                ["voronoi", cfg],
                # "--point=" keeps a leading minus sign from reading as an option.
                ["theta", cfg, "--char", char, f"--point={point}"],
                ["embed", cfg, f"--point={point}"],
                ["surface", cfg, "--out", "json"],
                ["surface", cfg, "--out", "off"],
                ["series", cfg, "--char", char, f"--point={point}"],
            ]
        return {"commands": commands, "root": root, "env": spawn_env(root)}

    @staticmethod
    def _spawn(argv: list[str], env: dict, cwd: Path) -> tuple[float, int, bytes]:
        start = clock()
        proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, timeout=60)
        return clock() - start, proc.returncode, proc.stdout

    def run_batch(self, program, inputs: dict, tracer=None) -> Batch:
        root, env = inputs["root"], inputs["env"]
        exe = [sys.executable, "-m", "tropical_kummer"]
        latencies, probes = [], {"interp": [], "import": []}
        failed = 0
        h = hashlib.sha256()
        cal = Calibrator(lambda: spawn_reference(env, root), SPAWN_NOMINAL_S, every_s=0.0)
        cal.begin()
        start = clock()
        for k, args in enumerate(inputs["commands"]):
            elapsed, code, out = self._spawn(exe + args, env, root)
            latencies.append(elapsed)
            cal.op(elapsed)
            failed += code != 0
            h.update(f"{k} {code} {len(out)}\n".encode() + out)
            if tracer is not None and k % 7 == 0:
                for key, probe in (("interp", "pass"), ("import", "import tropical_kummer.cli")):
                    probes[key].append(self._spawn([sys.executable, "-c", probe], env, root)[0])
        wall = clock() - start
        batch = Batch(wall, latencies, len(latencies), failed, h.hexdigest(), {"probes": probes})
        return batch.scale(cal)


def make_workloads(scale: str = "full") -> dict:
    """Workloads at full size, or at the minimal size the smoke test uses."""
    full = scale == "full"
    items = (
        VerifyWorkload("verify-hex", HEX_GRAM, 50 if full else 2),
        EmbedPoolWorkload(2 if full else 65),
        CliOneShotWorkload(5 if full else 1),
    )
    return {w.name: w for w in items}
