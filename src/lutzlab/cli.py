"""Command-line front end.

Subcommands mirror the library modules:

    profile  build | check | mollify
    reeb     scan | minima | cz | perturb
    family   embed | sweep | scaling
    distance lower | upper | gray | fold | sandwich
    persist  barcode | check

Every run writes its artifacts plus a run-manifest JSON (input hashes,
package/library versions, the tolerances of the checks it runs, and the
family certificate of the model it builds, if any) into --out.
Each command imports the numeric modules it uses when it runs.  Exit status: 0
when all checks pass, 1 on assertion failures, 2 on input errors.  All
numbers are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys

from . import __version__
from .errors import LutzLabError

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
        self.tolerances = {}
        self.family_certificate = None

    def model(self, args):
        """The FamilyModel of --floor-a, --floor-b and --n; the manifest
        records its tolerances and its family certificate."""
        from . import family, profile
        self.tolerances.update(contact_pass=profile.CONTACT_PASS,
                               round_trip_l=family.L_ROUND_TRIP,
                               round_trip_volume=family.VOLUME_ROUND_TRIP)
        model = family.FamilyModel(args.floor_a, args.floor_b, n=args.n)
        self.family_certificate = model.certificate.to_dict()
        return model

    def register_input(self, path: str):
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        self.inputs[path] = digest

    def write(self, name: str, writer) -> None:
        """writer(path) writes the artifact `name` into --out; the manifest
        lists it only once the writer has returned."""
        writer(os.path.join(self.outdir, name))
        self.outputs.append(name)

    def write_json(self, name: str, payload) -> None:
        def dump(path):
            with open(path, "w") as fh:
                if isinstance(payload, str):
                    fh.write(payload)
                else:
                    json.dump(payload, fh, sort_keys=True, indent=1)
                fh.write("\n")
        self.write(name, dump)

    def finish(self):
        versions = {"lutzlab": __version__,
                    "python": platform.python_version()}
        if not self.command.startswith("persist "):  # exact rationals
            import numpy as np
            versions["numpy"] = np.__version__
        manifest = {
            "command": self.command,
            "args": {k: (v if not isinstance(v, float) else float(v))
                     for k, v in self.args.items()},
            "inputs_sha256": self.inputs,
            "outputs": self.outputs,
            "tolerances": self.tolerances,
            "versions": versions,
        }
        if self.family_certificate is not None:
            manifest["family_certificate"] = self.family_certificate
        with open(os.path.join(self.outdir, "run_manifest.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
            fh.write("\n")


def finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and infinities are refused
    as input errors that name the flag."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _twist_from_args(args):
    from . import profile
    return profile.TwistParams(
        epsilon0=args.epsilon0, delta0=args.delta0, delta=args.delta,
        mu_minus=args.mu_minus, mu_plus=args.mu_plus, u=args.u).solved()


def _load_twist(ctx: RunContext, path: str):
    from . import profile
    ctx.register_input(path)
    with open(path) as fh:
        params = profile.TwistParams.from_json(fh.read())
    if params.delta1 is None or params.delta2 is None:
        params = params.solved()
    return params


def _add_twist_flags(p):
    p.add_argument("--epsilon0", type=finite_float, default=0.05)
    p.add_argument("--delta0", type=finite_float, default=0.0005)
    p.add_argument("--delta", type=finite_float, default=0.01)
    p.add_argument("--mu-minus", dest="mu_minus", type=finite_float,
                   default=-1.0)
    p.add_argument("--mu-plus", dest="mu_plus", type=finite_float,
                   default=1.0)


def _add_model_flags(p, grid=False):
    """The model's floors and dimension, after an (a, b) grid if asked."""
    for axis in ("a", "b") if grid else ():
        p.add_argument(f"--{axis}-grid", dest=f"{axis}_grid", nargs=3,
                       type=finite_float, required=True,
                       metavar=("LO", "HI", "N"))
    p.add_argument("--floor-a", dest="floor_a", type=finite_float, default=1.0)
    p.add_argument("--floor-b", dest="floor_b", type=finite_float, default=1.0)
    p.add_argument("--n", type=int, default=2)


def _grid_points(args) -> list:
    """`--a-grid` x `--b-grid`, each N a whole number of at least 1."""
    import numpy as np
    axes = []
    for axis in ("a", "b"):
        lo, hi, n = getattr(args, f"{axis}_grid")
        if not (n >= 1 and n == int(n)):
            raise LutzLabError(
                f"--{axis}-grid needs a whole number N >= 1, got {n:g}")
        axes.append(np.linspace(lo, hi, int(n)))
    return [(a, b) for a in axes[0] for b in axes[1]]


# ---------------------------------------------------------------------------
# profile commands
# ---------------------------------------------------------------------------

def cmd_profile_build(args, ctx: RunContext) -> int:
    from . import profile
    params = _twist_from_args(args)
    pair = profile.build_mollified_path(params)
    ctx.write_json("profile.json", params.to_json())
    ctx.write("profile.csv", lambda p: pair.sample_csv(p, n=args.samples))
    print(f"delta1 = {params.delta1:.17g}")
    print(f"delta2 = {params.delta2:.17g}")
    print(f"winding = {pair.winding_number()}")
    return EXIT_OK


def cmd_profile_check(args, ctx: RunContext) -> int:
    from . import profile
    ctx.tolerances["contact_pass"] = profile.CONTACT_PASS
    params = _load_twist(ctx, args.infile)
    pair = profile.build_mollified_path(params)
    report = profile.check_contact_condition(pair, grid_size=args.grid)
    ctx.write_json("contact_report.json", report.to_dict())
    print(f"min |D/r| = {report.min_abs_d_over_r:.17g} at "
          f"r = {report.argmin_r:.17g}; sign {report.sign}; "
          f"pass = {report.passed}")
    return EXIT_OK if report.passed else EXIT_ASSERT


def cmd_profile_mollify(args, ctx: RunContext) -> int:
    from . import profile
    params = _load_twist(ctx, args.infile)
    smooth = profile.build_mollified_path(params)
    ctx.write("profile_mollified.csv",
              lambda p: smooth.sample_csv(p, n=args.samples))
    ratio, ok = profile.verify_smoothing_bound(smooth, params.u)
    print(f"window sup |-H1'/D| = {ratio:.17g}; "
          f"1/u = {1.0 / params.u:.17g}; pass = {ok}")
    return EXIT_OK if ok else EXIT_ASSERT


# ---------------------------------------------------------------------------
# reeb commands
# ---------------------------------------------------------------------------

def cmd_reeb_scan(args, ctx: RunContext) -> int:
    from . import profile, reeb
    params = _load_twist(ctx, args.infile)
    pair = profile.build_mollified_path(params)
    fams = reeb.resonance_scan(pair, args.pq_max, grid=args.grid)
    ctx.write("orbits.csv", lambda p: reeb.orbit_scan_csv(fams, p))
    print(f"{len(fams)} resonance families written")
    return EXIT_OK


def cmd_reeb_minima(args, ctx: RunContext) -> int:
    from . import profile, reeb
    params = _load_twist(ctx, args.infile)
    pair = profile.build_mollified_path(params)
    r_plus, r_pp, a_plus, a_pp = reeb.action_minima(pair)
    ctx.write_json("minima.json", {
        "r_plus": r_plus, "r_plus_prime": r_pp,
        "action_plus": a_plus, "action_plus_prime": a_pp})
    print(f"r+ = {r_plus:.17g}  action = {a_plus:.17g}")
    print(f"r+' = {r_pp:.17g}  action = {a_pp:.17g}")
    return EXIT_OK


def cmd_reeb_cz(args, ctx: RunContext) -> int:
    from . import profile, reeb
    params = _load_twist(ctx, args.infile)
    pair = profile.build_mollified_path(params)
    info = reeb.CoreOrbitInfo.compute(pair, args.k_max)
    ctx.write_json("core_cz.json", info.to_json())
    for k, v in sorted(info.cz_by_cover.items()):
        print(f"cover {k}: {v}")
    return EXIT_OK


def cmd_reeb_perturb(args, ctx: RunContext) -> int:
    from . import profile, reeb
    params = _load_twist(ctx, args.infile)
    pair = profile.build_mollified_path(params)
    orbits = reeb.perturb(pair, params)
    ctx.write_json("perturbed.json", {
        "action_hyperbolic": orbits.action_hyperbolic,
        "action_elliptic": orbits.action_elliptic,
        "r_plus": orbits.r_plus,
        "degree_hyperbolic": orbits.degree_hyperbolic,
        "cz_elliptic_reported": orbits.cz_elliptic_reported})
    print(f"hyperbolic action = {orbits.action_hyperbolic:.17g}")
    print(f"elliptic action   = {orbits.action_elliptic:.17g}")
    print(f"hyperbolic degree = {orbits.degree_hyperbolic}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# family commands
# ---------------------------------------------------------------------------

def cmd_family_embed(args, ctx: RunContext) -> int:
    model = ctx.model(args)
    spec = model.embed_point((args.a, args.b))
    ctx.write_json("formspec.json", spec.to_json())
    print(f"k = {spec.k:.17g}  l = {spec.l:.17g}  "
          f"u = {spec.u:.17g}  certified = {spec.certified}")
    return EXIT_OK if spec.certified else EXIT_ASSERT


def cmd_family_sweep(args, ctx: RunContext) -> int:
    from . import family
    pts = _grid_points(args)
    specs = family.sweep(ctx.model(args), pts)
    ctx.write("family_sweep.csv", lambda p: family.sweep_csv(specs, p))
    bad = [s for s in specs if not s.certified]
    print(f"{len(specs)} members embedded; uncertified: {len(bad)}")
    return EXIT_OK if not bad else EXIT_ASSERT


def cmd_family_scaling(args, ctx: RunContext) -> int:
    from . import family
    model = ctx.model(args)
    spec = model.embed_point((args.a, args.b))
    rep = family.scaling_check(spec, args.c)
    ctx.write_json("scaling.json", {
        "c": rep.c, "n": rep.n, "volume_ratio": rep.volume_ratio,
        "volume_expected": rep.volume_expected, "l_ratio": rep.l_ratio,
        "passed": rep.passed})
    print(f"volume ratio = {rep.volume_ratio:.17g} "
          f"(expected {rep.volume_expected:.17g}); "
          f"l ratio = {rep.l_ratio:.17g}; pass = {rep.passed}")
    return EXIT_OK if rep.passed else EXIT_ASSERT


# ---------------------------------------------------------------------------
# distance commands
# ---------------------------------------------------------------------------

def _two_specs(args, ctx: RunContext):
    model = ctx.model(args)
    s1 = model.embed_point((args.a1, args.b1))
    s2 = model.embed_point((args.a2, args.b2))
    return s1, s2


def cmd_distance_lower(args, ctx: RunContext) -> int:
    from . import distance
    s1, s2 = _two_specs(args, ctx)
    cert = distance.lower_bound(s1, s2)
    ctx.write_json("certificate_lower.json", cert.to_json())
    print(f"lower = {cert.lower:.17g} via {cert.lower_method}")
    return EXIT_OK


def cmd_distance_upper(args, ctx: RunContext) -> int:
    from . import distance
    s1, s2 = _two_specs(args, ctx)
    cert = distance.triangle_ub(s1, s2)
    ctx.write_json("certificate_upper.json", cert.to_json())
    print(f"upper = {cert.upper:.17g} via {cert.upper_method}")
    return EXIT_OK


def cmd_distance_gray(args, ctx: RunContext) -> int:
    from . import distance, profile
    ctx.tolerances["gray_simpson_abs"] = distance._GRAY_TOL
    base = profile.TwistParams(
        epsilon0=args.epsilon0, delta0=args.delta0, delta=args.delta,
        mu_minus=args.mu_minus, mu_plus=args.mu_plus, u=args.u_start)
    fam = profile.TwistedPathFamily(base, min(args.u_start, args.u_end),
                                  max(args.u_start, args.u_end))
    res = distance.gray_integral(fam, args.u_start, args.u_end)
    ctx.write_json("gray.json", {
        "value": res.value, "u_start": res.u_start, "u_end": res.u_end,
        "sup_radii": [r for _, r in res.sup_locations[:8]]})
    print(f"gray integral = {res.value:.17g}")
    return EXIT_OK


def cmd_distance_fold(args, ctx: RunContext) -> int:
    from . import distance
    inclusion, folding = distance.folding_bounds(args.a1, args.a2,
                                                 args.ball, args.delta)
    ctx.write_json("folding.json", {
        "inclusion_bound": inclusion, "folding_bound": folding})
    print(f"inclusion bound = {inclusion:.17g}")
    print(f"folding bound   = {folding:.17g}")
    return EXIT_OK


def cmd_distance_sandwich(args, ctx: RunContext) -> int:
    from . import distance
    report = distance.bilipschitz_sweep(
        _grid_points(args), args.floor_a, args.floor_b, n=args.n,
        model=ctx.model(args))
    ctx.write("sandwich.csv", report.to_csv)
    print(f"{len(report.rows)} pairs; all pass = {report.all_passed}; "
          f"worst slack = {report.worst_slack:.17g}")
    return EXIT_OK if report.all_passed else EXIT_ASSERT


# ---------------------------------------------------------------------------
# persistence commands
# ---------------------------------------------------------------------------

def cmd_persist_barcode(args, ctx: RunContext) -> int:
    from . import persistence
    ctx.register_input(args.infile)
    with open(args.infile) as fh:
        dga = persistence.FilteredDGA.from_json(fh.read())
    bars = persistence.barcode(dga)
    ctx.write("barcode.csv", bars.to_csv)
    # the unit's bar dies where unit_vanishing_level stops: the same column
    print(f"{len(bars.bars)} bars; "
          f"unit level = {bars.unit_bar().death:.17g}")
    return EXIT_OK


def cmd_persist_check(args, ctx: RunContext) -> int:
    from . import persistence
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
    p.add_argument("--u", type=finite_float, default=0.05)
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
        p.add_argument("--a", type=finite_float, required=True)
        p.add_argument("--b", type=finite_float, required=True)
        _add_model_flags(p)
        if name == "scaling":
            p.add_argument("--c", type=finite_float, required=True)
        p.set_defaults(func=fn)
    p = g.add_parser("sweep")
    _add_model_flags(p, grid=True)
    p.set_defaults(func=cmd_family_sweep)

    g = sub.add_parser("distance").add_subparsers(dest="cmd", required=True)
    for name, fn in (("lower", cmd_distance_lower),
                     ("upper", cmd_distance_upper)):
        p = g.add_parser(name)
        for flag in ("a1", "b1", "a2", "b2"):
            p.add_argument(f"--{flag}", type=finite_float, required=True)
        _add_model_flags(p)
        p.set_defaults(func=fn)
    p = g.add_parser("gray")
    p.add_argument("--u-start", dest="u_start", type=finite_float,
                   required=True)
    p.add_argument("--u-end", dest="u_end", type=finite_float, required=True)
    _add_twist_flags(p)
    p.set_defaults(func=cmd_distance_gray)
    p = g.add_parser("fold")
    p.add_argument("--a1", type=finite_float, required=True)
    p.add_argument("--a2", type=finite_float, required=True)
    p.add_argument("--ball", type=finite_float, required=True)
    p.add_argument("--delta", type=finite_float, required=True)
    p.set_defaults(func=cmd_distance_fold)
    p = g.add_parser("sandwich")
    _add_model_flags(p, grid=True)
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
