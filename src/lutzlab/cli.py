"""Command-line front end.

Subcommands mirror the library modules:

    profile  build | check | mollify
    reeb     scan | minima | cz | perturb
    family   embed | sweep | scaling
    distance lower | upper | gray | fold | sandwich
    persist  barcode | check

Every run writes its artifacts plus a run-manifest JSON (input hashes,
package/library versions, tolerances) into --out.  Exit status: 0 when all
checks pass, 1 on assertion failures, 2 on input errors.  All numbers are
printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__, distance, family, persistence, profile, reeb
from .errors import LutzLabError
from .numerics import SIMPSON_TOL, format_float

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_INPUT = 2


class RunContext:
    def __init__(self, outdir: str, command: str, args: dict):
        self.outdir = outdir
        os.makedirs(outdir, exist_ok=True)
        self.command = command
        self.args = {k: v for k, v in args.items() if k not in ("func",)}
        self.inputs = {}
        self.outputs = []

    def register_input(self, path: str):
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        self.inputs[path] = digest

    def path(self, name: str) -> str:
        p = os.path.join(self.outdir, name)
        self.outputs.append(name)
        return p

    def write_json(self, name: str, payload) -> str:
        p = self.path(name)
        with open(p, "w") as fh:
            if isinstance(payload, str):
                fh.write(payload)
            else:
                json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
        return p

    def finish(self):
        manifest = {
            "command": self.command,
            "args": {k: (v if not isinstance(v, float) else float(v))
                     for k, v in self.args.items()},
            "inputs_sha256": self.inputs,
            "outputs": self.outputs,
            "tolerances": {"simpson_abs": SIMPSON_TOL,
                           "contact_pass": profile.CONTACT_PASS,
                           "round_trip_l": family.L_ROUND_TRIP,
                           "round_trip_volume": family.VOLUME_ROUND_TRIP},
            "versions": {"lutzlab": __version__,
                         "numpy": np.__version__,
                         "scipy": scipy.__version__,
                         "python": platform.python_version()},
        }
        with open(os.path.join(self.outdir, "run_manifest.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
            fh.write("\n")


def _twist_from_args(args) -> profile.TwistParams:
    return profile.TwistParams(
        epsilon0=args.epsilon0, delta0=args.delta0, delta=args.delta,
        mu_minus=args.mu_minus, mu_plus=args.mu_plus, u=args.u).solved()


def _load_twist(ctx: RunContext, path: str) -> profile.TwistParams:
    ctx.register_input(path)
    with open(path) as fh:
        params = profile.TwistParams.from_json(fh.read())
    if params.delta1 is None or params.delta2 is None:
        params = params.solved()
    return params


def _add_twist_flags(p, u_default=0.05):
    p.add_argument("--epsilon0", type=float, default=0.05)
    p.add_argument("--delta0", type=float, default=0.0005)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--mu-minus", dest="mu_minus", type=float, default=-1.0)
    p.add_argument("--mu-plus", dest="mu_plus", type=float, default=1.0)
    p.add_argument("--u", type=float, default=u_default)


# ---------------------------------------------------------------------------
# profile commands
# ---------------------------------------------------------------------------

def cmd_profile_build(args, ctx: RunContext) -> int:
    params = _twist_from_args(args)
    pair = profile.build_mollified_path(params)
    ctx.write_json("profile.json", params.to_json())
    pair.sample_csv(ctx.path("profile.csv"), n=args.samples)
    print(f"delta1 = {format_float(params.delta1)}")
    print(f"delta2 = {format_float(params.delta2)}")
    print(f"winding = {pair.winding_number()}")
    return EXIT_OK


def cmd_profile_check(args, ctx: RunContext) -> int:
    params = _load_twist(ctx, args.infile)
    pair = profile.build_mollified_path(params)
    report = profile.check_contact_condition(pair, grid_size=args.grid)
    ctx.write_json("contact_report.json", report.to_dict())
    print(f"min |D/r| = {format_float(report.min_abs_d_over_r)} at "
          f"r = {format_float(report.argmin_r)}; sign {report.sign}; "
          f"pass = {report.passed}")
    return EXIT_OK if report.passed else EXIT_ASSERT


def cmd_profile_mollify(args, ctx: RunContext) -> int:
    params = _load_twist(ctx, args.infile)
    raw = profile.build_twisted_path(params)
    smooth = profile.mollify(raw, profile.default_window(params))
    smooth.sample_csv(ctx.path("profile_mollified.csv"), n=args.samples)
    ratio, ok = profile.verify_smoothing_bound(smooth, params.u)
    print(f"window sup |-H1'/D| = {format_float(ratio)}; "
          f"1/u = {format_float(1.0 / params.u)}; pass = {ok}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# reeb commands
# ---------------------------------------------------------------------------

def cmd_reeb_scan(args, ctx: RunContext) -> int:
    params = _load_twist(ctx, args.infile)
    pair = profile.build_mollified_path(params)
    fams = reeb.resonance_scan(pair, args.pq_max, grid=args.grid)
    reeb.orbit_scan_csv(fams, ctx.path("orbits.csv"))
    print(f"{len(fams)} resonance families written")
    return EXIT_OK


def cmd_reeb_minima(args, ctx: RunContext) -> int:
    params = _load_twist(ctx, args.infile)
    pair = profile.build_mollified_path(params)
    r_plus, r_pp, a_plus, a_pp = reeb.action_minima(pair)
    ctx.write_json("minima.json", {
        "r_plus": r_plus, "r_plus_prime": r_pp,
        "action_plus": a_plus, "action_plus_prime": a_pp})
    print(f"r+ = {format_float(r_plus)}  action = {format_float(a_plus)}")
    print(f"r+' = {format_float(r_pp)}  action = {format_float(a_pp)}")
    return EXIT_OK


def cmd_reeb_cz(args, ctx: RunContext) -> int:
    params = _load_twist(ctx, args.infile)
    pair = profile.build_mollified_path(params)
    info = reeb.CoreOrbitInfo.compute(pair, args.k_max)
    ctx.write_json("core_cz.json", info.to_json())
    for k, v in sorted(info.cz_by_cover.items()):
        print(f"cover {k}: {v}")
    return EXIT_OK


def cmd_reeb_perturb(args, ctx: RunContext) -> int:
    params = _load_twist(ctx, args.infile)
    pair = profile.build_mollified_path(params)
    orbits = reeb.perturb(pair, params)
    ctx.write_json("perturbed.json", {
        "action_hyperbolic": orbits.action_hyperbolic,
        "action_elliptic": orbits.action_elliptic,
        "r_plus": orbits.r_plus,
        "degree_hyperbolic": orbits.degree_hyperbolic,
        "cz_elliptic_reported": orbits.cz_elliptic_reported})
    print(f"hyperbolic action = {format_float(orbits.action_hyperbolic)}")
    print(f"elliptic action   = {format_float(orbits.action_elliptic)}")
    print(f"hyperbolic degree = {orbits.degree_hyperbolic}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# family commands
# ---------------------------------------------------------------------------

def cmd_family_embed(args, ctx: RunContext) -> int:
    model = family.FamilyModel(args.floor_a, args.floor_b, n=args.n)
    spec = model.embed_point((args.a, args.b))
    ctx.write_json("formspec.json", spec.to_json())
    print(f"k = {format_float(spec.k)}  l = {format_float(spec.l)}  "
          f"u = {format_float(spec.u)}  certified = {spec.certified}")
    return EXIT_OK if spec.certified else EXIT_ASSERT


def cmd_family_sweep(args, ctx: RunContext) -> int:
    model = family.FamilyModel(args.floor_a, args.floor_b, n=args.n)
    a_lo, a_hi, a_n = args.a_grid
    b_lo, b_hi, b_n = args.b_grid
    pts = [(a, b) for a in np.linspace(a_lo, a_hi, int(a_n))
           for b in np.linspace(b_lo, b_hi, int(b_n))]
    specs = family.sweep(model, pts)
    family.sweep_csv(specs, ctx.path("family_sweep.csv"))
    bad = [s for s in specs if not s.certified]
    print(f"{len(specs)} members embedded; uncertified: {len(bad)}")
    return EXIT_OK if not bad else EXIT_ASSERT


def cmd_family_scaling(args, ctx: RunContext) -> int:
    model = family.FamilyModel(args.floor_a, args.floor_b, n=args.n)
    spec = model.embed_point((args.a, args.b))
    rep = family.scaling_check(spec, args.c)
    ctx.write_json("scaling.json", {
        "c": rep.c, "n": rep.n, "volume_ratio": rep.volume_ratio,
        "volume_expected": rep.volume_expected, "l_ratio": rep.l_ratio,
        "passed": rep.passed})
    print(f"volume ratio = {format_float(rep.volume_ratio)} "
          f"(expected {format_float(rep.volume_expected)}); "
          f"l ratio = {format_float(rep.l_ratio)}; pass = {rep.passed}")
    return EXIT_OK if rep.passed else EXIT_ASSERT


# ---------------------------------------------------------------------------
# distance commands
# ---------------------------------------------------------------------------

def _two_specs(args):
    model = family.FamilyModel(args.floor_a, args.floor_b, n=args.n)
    s1 = model.embed_point((args.a1, args.b1))
    s2 = model.embed_point((args.a2, args.b2))
    return s1, s2


def cmd_distance_lower(args, ctx: RunContext) -> int:
    s1, s2 = _two_specs(args)
    cert = distance.lower_bound(s1, s2)
    ctx.write_json("certificate_lower.json", cert.to_json())
    print(f"lower = {format_float(cert.lower)} via {cert.lower_method}")
    return EXIT_OK


def cmd_distance_upper(args, ctx: RunContext) -> int:
    s1, s2 = _two_specs(args)
    cert = distance.triangle_ub(s1, s2)
    ctx.write_json("certificate_upper.json", cert.to_json())
    print(f"upper = {format_float(cert.upper)} via {cert.upper_method}")
    return EXIT_OK


def cmd_distance_gray(args, ctx: RunContext) -> int:
    base = profile.TwistParams(
        epsilon0=args.epsilon0, delta0=args.delta0, delta=args.delta,
        mu_minus=args.mu_minus, mu_plus=args.mu_plus, u=args.u_start)
    fam = profile.TwistedPathFamily(base, min(args.u_start, args.u_end),
                                  max(args.u_start, args.u_end))
    res = distance.gray_integral(
        distance.GrayPathSpec(fam, args.u_start, args.u_end))
    ctx.write_json("gray.json", {
        "value": res.value, "u_start": res.u_start, "u_end": res.u_end,
        "sup_radii": [r for _, r in res.sup_locations[:8]]})
    print(f"gray integral = {format_float(res.value)}")
    return EXIT_OK


def cmd_distance_fold(args, ctx: RunContext) -> int:
    inclusion, folding = distance.folding_bounds(args.a1, args.a2,
                                                 args.ball, args.delta)
    ctx.write_json("folding.json", {
        "inclusion_bound": inclusion, "folding_bound": folding})
    print(f"inclusion bound = {format_float(inclusion)}")
    print(f"folding bound   = {format_float(folding)}")
    return EXIT_OK


def cmd_distance_sandwich(args, ctx: RunContext) -> int:
    a_lo, a_hi, a_n = args.a_grid
    b_lo, b_hi, b_n = args.b_grid
    pts = [(a, b) for a in np.linspace(a_lo, a_hi, int(a_n))
           for b in np.linspace(b_lo, b_hi, int(b_n))]
    report = distance.bilipschitz_sweep(pts, args.floor_a, args.floor_b,
                                        n=args.n)
    report.to_csv(ctx.path("sandwich.csv"))
    print(f"{len(report.rows)} pairs; all pass = {report.all_passed}; "
          f"worst slack = {format_float(report.worst_slack)}")
    return EXIT_OK if report.all_passed else EXIT_ASSERT


# ---------------------------------------------------------------------------
# persistence commands
# ---------------------------------------------------------------------------

def cmd_persist_barcode(args, ctx: RunContext) -> int:
    ctx.register_input(args.infile)
    with open(args.infile) as fh:
        dga = persistence.FilteredDGA.from_json(fh.read())
    bars = persistence.barcode(dga)
    bars.to_csv(ctx.path("barcode.csv"))
    level = persistence.unit_vanishing_level(dga)
    print(f"{len(bars.bars)} bars; unit level = {format_float(level)}")
    return EXIT_OK


def cmd_persist_check(args, ctx: RunContext) -> int:
    ctx.register_input(args.infile)
    with open(args.infile) as fh:
        dga = persistence.FilteredDGA.from_json(fh.read())
    ok = persistence.d_squared_check(dga)
    ctx.write_json("dga_check.json", {
        "d_squared_zero": ok,
        "n_generators": len(dga.generators),
        "basis_size": len(dga.basis())})
    print(f"d^2 = 0: {ok}")
    return EXIT_OK if ok else EXIT_ASSERT


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lutzlab",
        description="twisted-tube contact forms: dynamics, invariants, "
                    "distance bound certificates, filtered barcodes")
    ap.add_argument("--out", default=".", help="artifact output directory")
    sub = ap.add_subparsers(dest="group", required=True)

    g = sub.add_parser("profile").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("build")
    _add_twist_flags(p)
    p.add_argument("--samples", type=int, default=2001)
    p.set_defaults(func=cmd_profile_build)
    p = g.add_parser("check")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--grid", type=int, default=10000)
    p.set_defaults(func=cmd_profile_check)
    p = g.add_parser("mollify")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--samples", type=int, default=2001)
    p.set_defaults(func=cmd_profile_mollify)

    g = sub.add_parser("reeb").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("scan")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pq-max", dest="pq_max", type=int, default=2)
    p.add_argument("--grid", type=int, default=4000)
    p.set_defaults(func=cmd_reeb_scan)
    p = g.add_parser("minima")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_reeb_minima)
    p = g.add_parser("cz")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k-max", dest="k_max", type=int, default=3)
    p.set_defaults(func=cmd_reeb_cz)
    p = g.add_parser("perturb")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_reeb_perturb)

    g = sub.add_parser("family").add_subparsers(dest="cmd", required=True)
    for name, fn in (("embed", cmd_family_embed),
                     ("scaling", cmd_family_scaling)):
        p = g.add_parser(name)
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--b", type=float, required=True)
        p.add_argument("--floor-a", dest="floor_a", type=float, default=1.0)
        p.add_argument("--floor-b", dest="floor_b", type=float, default=1.0)
        p.add_argument("--n", type=int, default=2)
        if name == "scaling":
            p.add_argument("--c", type=float, required=True)
        p.set_defaults(func=fn)
    p = g.add_parser("sweep")
    p.add_argument("--a-grid", dest="a_grid", nargs=3, type=float,
                   required=True, metavar=("LO", "HI", "N"))
    p.add_argument("--b-grid", dest="b_grid", nargs=3, type=float,
                   required=True, metavar=("LO", "HI", "N"))
    p.add_argument("--floor-a", dest="floor_a", type=float, default=1.0)
    p.add_argument("--floor-b", dest="floor_b", type=float, default=1.0)
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=cmd_family_sweep)

    g = sub.add_parser("distance").add_subparsers(dest="cmd", required=True)
    for name, fn in (("lower", cmd_distance_lower),
                     ("upper", cmd_distance_upper)):
        p = g.add_parser(name)
        for flag in ("a1", "b1", "a2", "b2"):
            p.add_argument(f"--{flag}", type=float, required=True)
        p.add_argument("--floor-a", dest="floor_a", type=float, default=1.0)
        p.add_argument("--floor-b", dest="floor_b", type=float, default=1.0)
        p.add_argument("--n", type=int, default=2)
        p.set_defaults(func=fn)
    p = g.add_parser("gray")
    p.add_argument("--u-start", dest="u_start", type=float, required=True)
    p.add_argument("--u-end", dest="u_end", type=float, required=True)
    _add_twist_flags(p)
    p.set_defaults(func=cmd_distance_gray)
    p = g.add_parser("fold")
    p.add_argument("--a1", type=float, required=True)
    p.add_argument("--a2", type=float, required=True)
    p.add_argument("--ball", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=cmd_distance_fold)
    p = g.add_parser("sandwich")
    p.add_argument("--a-grid", dest="a_grid", nargs=3, type=float,
                   required=True, metavar=("LO", "HI", "N"))
    p.add_argument("--b-grid", dest="b_grid", nargs=3, type=float,
                   required=True, metavar=("LO", "HI", "N"))
    p.add_argument("--floor-a", dest="floor_a", type=float, default=1.0)
    p.add_argument("--floor-b", dest="floor_b", type=float, default=1.0)
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=cmd_distance_sandwich)

    g = sub.add_parser("persist").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("barcode")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_persist_barcode)
    p = g.add_parser("check")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_persist_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    ctx = RunContext(args.out, f"{args.group} {args.cmd}", vars(args))
    try:
        status = args.func(args, ctx)
    except (LutzLabError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        ctx.finish()
        return EXIT_INPUT
    ctx.finish()
    return status


if __name__ == "__main__":
    sys.exit(main())
