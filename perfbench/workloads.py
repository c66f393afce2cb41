"""The three benchmark workloads: seeded inputs, operations, references.

Each workload object is built from a seed (the construction that the
set-up time covers), hands out one round of operations at a time, and
checks outputs against an independent reference outside the timed region:

    sandwich  distance.bilipschitz_sweep on a 3x3 grid with criterion 5's
              shape; reference: the closed forms lower = d_inf and
              upper = |da| + |d(b - a)|.
    dynamics  the README's profile and reeb commands through cli.main on
              two twist profiles from a recorded pool; reference: artifact
              numbers recorded from the seed commit.
    persist   Koszul-type DG-algebras of 1002 basis words; reference: the
              unit level is action(t), and the barcode equals
              brute_force_oracle.

Only the standard library is imported at module level, so that importing
this module before timing `import lutzlab` does not pre-load numpy.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
DYNAMICS_REFERENCE = os.path.join(HERE, "reference", "dynamics.json")

# Twist profiles the dynamics workload draws from: (epsilon0, delta0, u).
# Each is admissible (profile check passes) and keeps delta2 near zero.
PROFILE_POOL = (
    (0.05, 0.0005, 0.05),
    (0.04, 0.0005, 0.04),
    (0.06, 0.0005, 0.06),
    (0.05, 0.0004, 0.045),
    (0.045, 0.0005, 0.045),
    (0.055, 0.0005, 0.055),
)

# (group, command) of each dynamics operation, in order; every command
# after `profile build` reads the profile.json it wrote.
DYNAMICS_COMMANDS = (
    ("profile", "build"),
    ("profile", "check"),
    ("reeb", "scan"),
    ("reeb", "minima"),
    ("reeb", "cz"),
    ("reeb", "perturb"),
)

# Every 100th row of profile.csv enters the reference comparison.
CSV_STRIDE = 100


class CheckFailed(Exception):
    """An output disagrees with its reference beyond the tolerance."""


@dataclass
class Op:
    label: str
    units: int                  # work units this op counts for ops_per_s
    key: object                 # which reference entry checks it
    run: Callable[[], object]


def rel_err(x: float, ref: float, floor: float = 0.0) -> float:
    """|x - ref| / max(|ref|, floor); exact agreement (incl. inf) is 0."""
    if x == ref:
        return 0.0
    den = max(abs(ref), floor)
    return math.inf if den == 0.0 else abs(x - ref) / den


# ---------------------------------------------------------------------------
# sandwich
# ---------------------------------------------------------------------------

class Sandwich:
    """The paper's headline computation: the certified bi-Lipschitz sweep."""

    name = "sandwich"
    unit = "certified pairs"
    tolerance = 1e-10   # Gray legs integrate to absolute tolerance 1e-12

    def __init__(self, seed: int, size: str = "full", workdir: str = ""):
        from lutzlab import family

        rng = random.Random(seed)
        n_a, n_b = (3, 3) if size == "full" else (1, 2)
        a0 = rng.uniform(0.0, 0.03)
        a_span = rng.uniform(0.16, 0.18)
        # b-spacing dominates twice the a-span, so the final constant-2
        # link of the chain applies to every anti-correlated pair
        b_step = 2.0 * a_span + rng.uniform(0.01, 0.02)
        b_top = math.log(rng.uniform(0.055, 0.065))
        a_vals = [a0 + a_span * i / max(n_a - 1, 1) for i in range(n_a)]
        b_vals = [b_top - b_step * (n_b - 1 - j) for j in range(n_b)]
        self.points = [(a, b) for a in a_vals for b in b_vals]
        # the model validates the grid; each sweep builds its own, fresh
        model = family.FamilyModel(1.0, 1.0, n=2)
        for a, b in self.points:
            k, l = math.exp(2.0 * a), math.exp(b)
            if not (model.domain.contains((a, b))
                    and model.amplitude_for(k, l) >= model.defaults.u_ref):
                raise ValueError(f"grid point {(a, b)} is not admissible")
        self.n_pairs = len(self.points) * (len(self.points) - 1) // 2

    def ops(self, round_index: int) -> list:
        from lutzlab import distance

        points = self.points

        def sweep():
            return distance.bilipschitz_sweep(points, 1.0, 1.0, n=2)
        return [Op("sweep", self.n_pairs, None, sweep)]

    def canonical(self, op: Op, raw) -> tuple:
        rows = tuple((r.a1, r.b1, r.a2, r.b2, r.dinf, r.lower, r.upper,
                      r.slack, r.passed) for r in raw.rows)
        return rows, raw.worst_slack, raw.all_passed

    def reference(self) -> dict:
        """Closed forms per pair: lower = d_inf, and the Gray leg is
        ln(u_hi/u_lo) with ln u = b - a + const, so upper = |da| + |d(b-a)|."""
        ref = {}
        for i, (a1, b1) in enumerate(self.points):
            for a2, b2 in self.points[i + 1:]:
                ref[(a1, b1, a2, b2)] = (
                    max(abs(a1 - a2), abs(b1 - b2)),
                    abs(a1 - a2) + abs((b1 - a1) - (b2 - a2)))
        return ref

    def check(self, op: Op, out, ref: dict) -> float:
        rows, _, all_passed = out
        if len(rows) != len(ref):
            raise CheckFailed(f"{len(rows)} rows for {len(ref)} pairs")
        worst = 0.0
        for a1, b1, a2, b2, _dinf, lower, upper, _slack, passed in rows:
            key = (a1, b1, a2, b2)
            if key not in ref:
                raise CheckFailed(f"unexpected pair {key}")
            lo_ref, up_ref = ref[key]
            worst = max(worst, rel_err(lower, lo_ref), rel_err(upper, up_ref))
            if not passed:
                raise CheckFailed(f"pair {key} failed the sandwich")
        if not all_passed:
            raise CheckFailed("sweep reports a failed pair")
        return worst

    def artifact_bytes(self, out) -> int:
        return 0


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def profile_id(entry) -> str:
    e0, d0, u = entry
    return f"e0={e0!r},d0={d0!r},u={u!r}"


def dynamics_argv(entry, outdir: str) -> list:
    """(label, argv, output dir) of each command on one profile."""
    e0, d0, u = entry
    spec = os.path.join(outdir, "build", "profile.json")
    cmds = []
    for group, cmd in DYNAMICS_COMMANDS:
        out = os.path.join(outdir, cmd)
        argv = ["--out", out, group, cmd]
        if cmd == "build":
            argv += ["--epsilon0", repr(e0), "--delta0", repr(d0),
                     "--u", repr(u)]
        else:
            argv += ["--in", spec]
        if cmd == "scan":
            argv += ["--pq-max", "2"]
        cmds.append((f"{group} {cmd}", argv, out))
    return cmds


def run_cli(argv: list) -> tuple:
    """cli.main(argv) with its standard output captured."""
    from lutzlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def read_artifacts(outdir: str) -> dict:
    arts = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            arts[name] = fh.read()
    return arts


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}", obj[k], out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out[prefix] = obj


def _typed(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def flatten_artifacts(code: int, arts: dict) -> dict:
    """Every compared number of one command's artifacts, by name."""
    flat = {"exit": code}
    for name, data in arts.items():
        if name == "run_manifest.json":
            continue
        text = data.decode()
        if name.endswith(".json"):
            _flatten(name, json.loads(text), flat)
            continue
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        flat[f"{name}.rows"] = len(body)
        stride = CSV_STRIDE if name == "profile.csv" else 1
        for i in range(0, len(body), stride):
            for col, cell in zip(header, body[i]):
                flat[f"{name}[{i}].{col}"] = _typed(cell)
    return flat


class Dynamics:
    """The README's profile and reeb commands, in process through cli.main."""

    name = "dynamics"
    unit = "CLI commands"
    # relative to max(|ref|, 1e-6); resonance roots are polished to 1e-10
    # and periods are first order in the root, minima roots to 1e-12
    tolerance = 1e-8
    floor = 1e-6

    def __init__(self, seed: int, size: str = "full", workdir: str = ""):
        from lutzlab import profile

        rng = random.Random(seed)
        count = 2 if size == "full" else 1
        self.profiles = rng.sample(PROFILE_POOL, count)
        for e0, d0, u in self.profiles:
            profile.TwistParams(epsilon0=e0, delta0=d0, u=u).solved() \
                .validate()
        self.workdir = workdir

    def ops(self, round_index: int) -> list:
        ops = []
        for i, entry in enumerate(self.profiles):
            # fixed-width names keep every round's manifests the same size
            base = os.path.join(self.workdir, f"r{round_index:04d}", f"p{i}")
            for label, argv, out in dynamics_argv(entry, base):
                def run(argv=argv, out=out):
                    code, stdout = run_cli(argv)
                    return code, stdout, out
                ops.append(Op(label, 1, (profile_id(entry), label), run))
        return ops

    def canonical(self, op: Op, raw) -> tuple:
        code, stdout, out = raw
        arts = read_artifacts(out) if os.path.isdir(out) else {}
        if "run_manifest.json" not in arts:
            raise CheckFailed(f"{op.label} wrote no run manifest")
        size = sum(len(v) for v in arts.values())
        arts.pop("run_manifest.json")   # names this run's paths
        return code, stdout, arts, size

    def reference(self, path: str = DYNAMICS_REFERENCE) -> dict:
        with open(path) as fh:
            return json.load(fh)["profiles"]

    def check(self, op: Op, out, ref: dict) -> float:
        code, _stdout, arts, _size = out
        if code != 0:
            raise CheckFailed(f"{op.label} exited {code}")
        pid, label = op.key
        expected = ref[pid][label]
        got = flatten_artifacts(code, arts)
        if set(got) != set(expected):
            raise CheckFailed(
                f"{op.label}: fields differ: "
                f"{sorted(set(got) ^ set(expected))[:5]}")
        worst = 0.0
        for k, want in expected.items():
            have = got[k]
            if have == want:
                continue
            # a float that prints as a whole number parses as an int
            if _is_number(have) and _is_number(want) and not (
                    isinstance(have, int) and isinstance(want, int)):
                worst = max(worst, rel_err(have, want, self.floor))
            else:
                raise CheckFailed(f"{op.label}: {k} = {have!r}, "
                                  f"recorded {want!r}")
        return worst

    def artifact_bytes(self, out) -> int:
        return out[3]


# ---------------------------------------------------------------------------
# persist
# ---------------------------------------------------------------------------

def koszul_spec(rng: random.Random, pairs: int) -> tuple:
    """Generators and differential of a Koszul-type DGA.

    Even e_i, odd o_i with d o_i = c_i e_i and action(o_i) > action(e_i),
    plus one odd t with d t = 1.  The action cap is far above every word
    of word_cap letters, so the basis size depends on (pairs, word_cap)
    alone and the workload's cost barely moves with the seed.
    """
    gens, diff = [], {}
    for i in range(pairs):
        e_act = round(rng.uniform(1.0, 1.5), 3)
        o_act = round(e_act + rng.uniform(0.3, 0.8), 3)
        gens += [(f"e{i}", 0, e_act), (f"o{i}", 1, o_act)]
        coeff = Fraction(rng.choice((1, -1)) * rng.randint(1, 3),
                         rng.randint(1, 3))
        diff[f"o{i}"] = [(coeff, [f"e{i}"])]
    gens.append(("t", 1, round(rng.uniform(2.0, 2.5), 3)))
    diff["t"] = [(Fraction(1), [])]
    return gens, diff


def bars_digest(bars) -> str:
    """Digest of a barcode's bars: labels, births and deaths, exactly."""
    return hashlib.sha256(repr(bars).encode()).hexdigest()


class Persist:
    """Exact-rational filtered elimination on Koszul-type DGAs."""

    name = "persist"
    unit = "DGAs"
    tolerance = 0.0     # exact rational arithmetic
    action_cap = 1e6

    def __init__(self, seed: int, size: str = "full", workdir: str = ""):
        rng = random.Random(seed)
        self.pairs, self.word_cap, pool = ((4, 5, 2) if size == "full"
                                           else (2, 4, 2))
        self.specs = [koszul_spec(rng, self.pairs) for _ in range(pool)]
        self.dgas = [self._build(spec) for spec in self.specs]

    def _build(self, spec):
        from lutzlab import persistence

        gens, diff = spec
        return persistence.FilteredDGA(
            [persistence.Generator(*g) for g in gens], diff,
            self.action_cap, self.word_cap)

    def ops(self, round_index: int) -> list:
        from lutzlab import persistence

        ops = []
        for i, spec in enumerate(self.specs):
            dga = self._build(spec)   # a fresh object per repetition

            def run(dga=dga):
                return (persistence.barcode(dga),
                        persistence.unit_vanishing_level(dga))
            ops.append(Op(f"dga{i}", 1, i, run))
        return ops

    def canonical(self, op: Op, raw) -> tuple:
        bars, level = raw
        return bars_digest(bars.bars), level

    def reference(self) -> list:
        """(oracle bars, action of t) per pool DGA."""
        from lutzlab import persistence

        return [(persistence.brute_force_oracle(dga).bars,
                 dga.generators[dga.index["t"]].action)
                for dga in self.dgas]

    def check(self, op: Op, out, ref: list) -> float:
        digest, level = out
        ref_bars, t_action = ref[op.key]
        if digest != bars_digest(ref_bars):
            raise CheckFailed(f"{op.label}: barcode differs from the oracle")
        return rel_err(level, t_action)

    def artifact_bytes(self, out) -> int:
        return 0


WORKLOADS = {w.name: w for w in (Sandwich, Dynamics, Persist)}


def verdict(wl, op: Op, out, ref) -> tuple:
    """(passed, relative error, note) of one output against its reference."""
    try:
        err = wl.check(op, out, ref)
    except CheckFailed as exc:
        return False, math.inf, str(exc)
    if err > wl.tolerance:
        return False, err, f"{op.label}: relative error {err:.3g} above " \
                           f"{wl.tolerance:g}"
    return True, err, ""
