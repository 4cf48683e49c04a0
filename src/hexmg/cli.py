"""Command-line entry point wiring all modules together.

Subcommands: ``lattice``, ``cluster``, ``region``, ``zf``, ``converse``,
``schedule``, ``verify-all``.  Common flags: ``--out DIR``, ``--seed S``,
``--config FILE`` (a flat ``key = value`` file mirroring flag names; explicit
flags override config values).  Exit codes: 0 success, 1 verification or
validation failure, 2 usage error.  All emitted files are byte-identical for
identical configurations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import checks, clustering, lattice, partitions, precoding, regions, schedules
from .checks import decimal_str

USAGE_ERROR = 2
CHECK_FAILED = 1


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _sample_count(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 samples, got {text}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _write_or_print(text: str, path: Optional[str], out_dir: Optional[str]) -> None:
    """Write ``text`` to ``path``, under ``out_dir`` if it is relative, or to
    stdout without a path; a path that cannot be written is a usage error."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        if out_dir and not os.path.isabs(path):
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, path)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# lattice

def cmd_lattice(args: argparse.Namespace) -> int:
    net = lattice.build_network(args.radius)
    src, dst = net.directed_edges()
    if args.emit:
        label = [f"{q},{r},{o}" for q, r, o in net.sectors]
        lines = ["sector_cell_q,sector_cell_r,orientation,neighbor_cell_q,neighbor_cell_r,neighbor_orientation"]
        lines += sorted(f"{label[i]},{label[j]}" for i, j in zip(src.tolist(), dst.tolist()))
        _write_or_print("\n".join(lines) + "\n", args.emit, args.out)
    # the cells whose six neighbours all lie on the lattice
    per_cell = net.nbr.reshape(len(net.q), -1)
    interior_ok = bool((per_cell[net.interior_mask(1)] >= 0).all())
    print(
        f"lattice radius={args.radius}: {len(net.q)} cells, "
        f"{len(net.nbr)} sectors, {len(src)} directed interference links, "
        f"interior degree 4: {'ok' if interior_ok else 'VIOLATED'}"
    )
    return 0 if interior_ok else CHECK_FAILED


# ---------------------------------------------------------------------------
# cluster

def cmd_cluster(args: argparse.Namespace) -> int:
    net = lattice.build_network(args.radius)
    mode = clustering.MODE_MIXED if args.mode == "mixed" else clustering.MODE_SLOW_ONLY
    plan = clustering.assign_messages(clustering.clusters(net, args.t), mode)

    if args.emit:
        # each master cell's orientation-0 sector is its cluster's master user
        master_users = {(*cl.master, 0) for cl in plan.clusters if cl.master is not None}
        lines = ["cell_q,cell_r,orientation,role,cluster_id"]
        for s, code, cid in zip(net.sectors, plan.roles.tolist(), plan.cluster_ids.tolist()):
            role = "MASTER" if s in master_users else clustering.ROLES[code]
            lines.append(f"{s[0]},{s[1]},{s[2]},{role},{cid}")
        _write_or_print("\n".join(lines) + "\n", args.emit, args.out)

    status = 0
    t = args.t
    if args.check_counts:
        tx = clustering.count_links(plan, clustering.TX)
        rx = clustering.count_links(plan, clustering.RX)
        want_tx, want_rx = checks.links_per_cluster(t)
        ok = tx == want_tx and rx == want_rx
        print(
            f"cluster t={t}: tx links {tx} (want {want_tx}), "
            f"rx links {rx} (want {want_rx}): {'ok' if ok else 'MISMATCH'}"
        )
        if not ok:
            status = CHECK_FAILED
    fracs = clustering.assignment_fractions(plan)
    frac_str = ", ".join(
        f"{role.lower()} {decimal_str(fr, 4)}" for role, fr in sorted(fracs.items())
    )
    print(
        f"cluster t={t} mode={args.mode}: {len(plan.masters)} masters, "
        f"{len(plan.clusters)} clusters, interior fractions: {frac_str}"
    )
    return status


# ---------------------------------------------------------------------------
# region

def region_svg(curves: Sequence[Tuple[str, List[regions.MGPoint]]]) -> str:
    width, height, margin = 640, 480, 70
    sf_max = max((float(p.sf) for _, pts in curves for p in pts), default=1.0) or 1.0
    ss_max = max((float(p.ss) for _, pts in curves for p in pts), default=1.0) or 1.0

    def sx(v: float) -> str:
        return f"{margin + (width - 2 * margin) * v / (1.05 * sf_max):.2f}"

    def sy(v: float) -> str:
        return f"{height - margin - (height - 2 * margin) * v / (1.05 * ss_max):.2f}"

    colors = ("#1f6fb2", "#b23a1f", "#3ab21f", "#b21f8e")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{margin}" y2="{margin}" '
        f'stroke="black"/>',
        f'<text x="{width - margin + 8}" y="{height - margin + 4}" '
        f'font-size="14">S^(F)</text>',
        f'<text x="{margin - 10}" y="{margin - 12}" font-size="14">S^(S)</text>',
    ]
    for i, (name, pts) in enumerate(curves):
        coords = " ".join(f"{sx(float(p.sf))},{sy(float(p.ss))}" for p in pts)
        color = colors[i % len(colors)]
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{margin + 10}" y="{margin + 18 * (i + 1)}" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _default_t_values(args: argparse.Namespace) -> Optional[List[int]]:
    if args.t_sweep:
        return None
    if args.t is not None:
        return [args.t]
    dual = regions.t_ranges(regions.FAMILY_MIXED, args.d)[0]
    return [dual[-1]] if dual else None


def cmd_region(args: argparse.Namespace) -> int:
    params = regions.SystemParams(m=args.m, mu_tx=args.mu_tx, mu_rx=args.mu_rx, d=args.d)
    ranges = [r for family in (regions.FAMILY_SLOW, regions.FAMILY_MIXED)
              for r in regions.t_ranges(family, args.d)]
    if args.t is not None and not any(args.t in r for r in ranges):
        raise ValueError(
            f"--t {args.t} enters no scheme for --d {args.d}; "
            f"t must be at most {max(r.stop for r in ranges) - 1}"
        )
    t_values = _default_t_values(args)
    which = args.which or "both"
    curves: List[Tuple[str, regions.Region]] = []
    if which in ("inner", "both"):
        curves.append(("inner", regions.inner_bound(params, t_values)))
    if which in ("outer", "both"):
        curves.append(("outer", regions.outer_bound(params)))

    if args.format == "json":
        payload = {
            "m": args.m,
            "d": args.d,
            "mu_tx": [params.mu_tx.numerator, params.mu_tx.denominator],
            "mu_rx": [params.mu_rx.numerator, params.mu_rx.denominator],
            "t_values": t_values,
            "bounds": {
                name: [
                    {
                        "sf": [v.sf.numerator, v.sf.denominator],
                        "ss": [v.ss.numerator, v.ss.denominator],
                    }
                    for v in region.vertices
                ]
                for name, region in curves
            },
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        try:  # spreading samples along the boundary, and plotting, use floats
            sampled = [(name, regions.boundary_samples(region, args.samples)) for name, region in curves]
            if args.format == "svg":
                text = region_svg(sampled)
            else:
                rows = [f"{name},{decimal_str(p.sf)},{decimal_str(p.ss)}" for name, pts in sampled for p in pts]
                text = "\n".join(["bound,sf,ss", *rows]) + "\n"
        except OverflowError as exc:
            raise ValueError(
                f"gains too large for floating point ({exc}): boundary samples and SVG "
                "need float coordinates; --format json stays exact"
            ) from exc
    _write_or_print(text, args.emit, args.out)
    return 0


# ---------------------------------------------------------------------------
# zf

def cmd_zf(args: argparse.Namespace) -> int:
    results = precoding.run_trials(
        args.t, args.m, args.trials, seed=args.seed, scheme=args.scheme, tol=args.tol
    )
    lines = ["trial,solvable,max_cross_residual,min_self_rank"]
    for i, res in enumerate(results):
        lines.append(
            f"{i},{str(res.solvable).lower()},{res.max_cross_residual:.3e},{res.min_self_rank}"
        )
    if args.emit:
        _write_or_print("\n".join(lines) + "\n", args.emit, args.out)
    n_ok = sum(1 for r in results if r.solvable)
    worst = max(r.max_cross_residual for r in results)
    verdict = "PASS" if n_ok == len(results) else "FAIL"
    print(
        f"zf t={args.t} m={args.m} scheme={args.scheme} trials={args.trials}: "
        f"{verdict} ({n_ok}/{len(results)} solvable, worst residual {worst:.3e}, "
        f"tol {args.tol:g})"
    )
    return 0 if verdict == "PASS" else CHECK_FAILED


# ---------------------------------------------------------------------------
# converse

def cmd_converse(args: argparse.Namespace) -> int:
    kind = args.partition or ("four" if args.d is not None else "two")
    if kind == "four" and args.d is None:
        raise ValueError("--d is required for the four-colour partition")
    if kind == "two" and args.d is not None:
        raise ValueError("--d applies only to the four-colour partition")
    net = lattice.build_network(args.radius)
    part = (
        partitions.partition_two(net)
        if kind == "two"
        else partitions.partition_four(net, args.d)
    )
    rows = partitions.census_fractions(net, part)
    lines = ["color,count,fraction,limit,abs_error"]
    for row in rows:
        lines.append(
            f"{row.color},{row.count},{decimal_str(row.fraction)},"
            f"{decimal_str(row.limit)},{decimal_str(row.abs_error)}"
        )
    _write_or_print("\n".join(lines) + "\n", args.emit, args.out)
    if args.emit:
        print(f"converse partition={kind} radius={args.radius}: census written to {args.emit}")
    if args.check_fractions:
        worst = max(row.abs_error for row in rows)
        ok = worst <= checks.FRACTION_TOL
        print(
            f"converse fraction check: worst error {decimal_str(worst)} "
            f"({'within' if ok else 'EXCEEDS'} {float(checks.FRACTION_TOL):g})"
        )
        return 0 if ok else CHECK_FAILED
    return 0


# ---------------------------------------------------------------------------
# schedule

def cmd_schedule(args: argparse.Namespace) -> int:
    d = args.d if args.d is not None else args.dt + args.dr
    build = schedules.schedule_two_color if args.algorithm == 1 else schedules.schedule_four_color
    plan = build(args.dt, args.dr, d)
    print(f"schedule algorithm={args.algorithm} dt={args.dt} dr={args.dr} d={d}")
    print(f"{'#':>3} {'kind':<12} {'round':>5}  step")
    for i, step in enumerate(plan.steps):
        rnd = step.round_index if step.kind in (schedules.RX_CONF, schedules.TX_CONF) else "-"
        print(f"{i:>3} {step.kind:<12} {rnd!s:>5}  {step.name}")
    if not args.validate:
        return 0
    report = schedules.validate_schedule(plan)
    if report.ok:
        print("schedule: VALID (all dependencies, budgets and goals satisfied)")
        return 0
    print("schedule: INVALID")
    for v in report.violations:
        print(f"  - {v}")
    return CHECK_FAILED


# ---------------------------------------------------------------------------
# verify-all

def cmd_verify_all(args: argparse.Namespace) -> int:
    if args.radius < checks.MIN_RADIUS:
        raise ValueError(f"verify-all needs --radius >= {checks.MIN_RADIUS} "
                         f"(its t=4 checks need radius >= 3t), got {args.radius}")
    results = list(checks.all_checks(args.radius, args.zf_trials, args.seed))
    lines = [
        f"CHECK {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else "")
        for name, ok, detail in results
    ]
    n_pass = sum(1 for check in results if check.ok)
    lines.append(f"verify-all: {n_pass}/{len(results)} checks passed")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        _write_or_print(report, "verify_report.txt", args.out)
    return 0 if n_pass == len(results) else CHECK_FAILED


# ---------------------------------------------------------------------------
# parser plumbing

def _load_config(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _command_parser(parser: argparse.ArgumentParser, argv: List[str]):
    """The subparser of the first ``argv`` token that names a command, if any."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next((subparsers.choices[a] for a in argv if a in subparsers.choices), None)


def _option_named(arg: str, options) -> str:
    """The option a ``--`` flag names, matched as argparse matches it:
    exactly, else as the unique option it abbreviates (``--inn`` for
    ``--inner``); ``--flag=value`` names ``--flag``."""
    flag = arg.split("=", 1)[0]
    hits = [o for o in options if o.startswith(flag)]
    return flag if flag in options or len(hits) != 1 else hits[0]


def _explicit_groups(parser: argparse.ArgumentParser, argv: List[str]) -> List[set]:
    """The option strings of each mutually exclusive group of ``argv``'s
    command that a flag in ``argv`` sets, read from argparse's own record of
    the groups so that ``_build_parser`` stays the one place that states
    them."""
    sub = _command_parser(parser, argv)
    if sub is None:
        return []
    options = sub._option_string_actions
    explicit = {_option_named(arg, options) for arg in argv if arg.startswith("--")}
    groups = [{s for a in g._group_actions for s in a.option_strings}
              for g in sub._mutually_exclusive_groups]
    return [group for group in groups if group & explicit]


def _inject_config(argv: List[str], parser: argparse.ArgumentParser) -> List[str]:
    """Turn config-file entries into flags placed before the explicit ones,
    leaving out the entries of a mutually exclusive group that an explicit
    flag already sets.  ``--config FILE`` and ``--config=FILE`` are matched
    like the command's own flags, abbreviations included; argparse never
    sees them, so a second ``--config`` is refused as an unknown flag."""
    sub = _command_parser(parser, argv)
    options = ["--config", *(sub._option_string_actions if sub else ())]
    at = next((i for i, arg in enumerate(argv)
               if arg.startswith("--") and _option_named(arg, options) == "--config"), None)
    if at is None:
        return argv
    _, eq, path = argv[at].partition("=")
    if not eq:
        if at + 1 >= len(argv):
            raise ValueError("--config needs a file path")
        path = argv[at + 1]
    kv = _load_config(path)
    rest = argv[:at] + argv[at + (1 if eq else 2) :]
    for group in _explicit_groups(parser, rest):
        kv = {key: value for key, value in kv.items() if f"--{key}" not in group}
    flags: List[str] = []
    for key, value in kv.items():
        if value.lower() == "true":
            flags.append(f"--{key}")
        elif value.lower() == "false":
            continue
        else:
            flags.extend([f"--{key}", value])
    if not rest:
        return flags
    return [rest[0]] + flags + rest[1:]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="directory for emitted files")
    common.add_argument("--seed", type=_nonnegative_int, default=0, help="global random seed")

    parser = argparse.ArgumentParser(
        prog="hexmg",
        description="sectorized hexagonal network multiplexing-gain toolkit",
        epilog="every command also takes --config FILE (or --config=FILE): flat "
        "'key = value' lines named after its flags; explicit flags win",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("lattice", parents=[common], help="build the lattice and emit its interference links")
    p.add_argument("--radius", type=_positive_int, required=True)
    p.add_argument("--emit", help="CSV file for the directed interference links")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("cluster", parents=[common], help="cluster decomposition and message assignment")
    p.add_argument("--radius", type=_positive_int, required=True)
    p.add_argument("--t", type=_positive_int, required=True)
    p.add_argument("--mode", choices=("slow", "mixed"), default="slow")
    p.add_argument("--check-counts", action="store_true")
    p.add_argument("--emit", help="CSV file for per-sector roles")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("region", parents=[common], help="inner/outer multiplexing-gain regions")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--mu-tx", type=_fraction, default=Fraction(0))
    p.add_argument("--mu-rx", type=_fraction, default=Fraction(0))
    p.add_argument("--d", type=_positive_int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--inner", dest="which", action="store_const", const="inner")
    group.add_argument("--outer", dest="which", action="store_const", const="outer")
    group.add_argument("--both", dest="which", action="store_const", const="both")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--samples", type=_sample_count, default=2, help="boundary sample count")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--t", type=_positive_int, default=None, help="single cluster parameter (default: floor((d-2)/4))")
    group.add_argument("--t-sweep", action="store_true", help="sweep every admissible t")
    p.add_argument("--emit", help="output file (default: stdout)")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("zf", parents=[common], help="zero-forcing precoder certification")
    p.add_argument("--t", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--tol", type=_tolerance, default=precoding.NULLING_TOL)
    p.add_argument("--scheme", choices=tuple(precoding.SCHEME_MODES), default="s4")
    p.add_argument("--emit", help="CSV file for per-trial results")
    p.set_defaults(func=cmd_zf)

    p = sub.add_parser("converse", parents=[common], help="partition censuses for the outer bound")
    p.add_argument("--radius", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, default=None)
    p.add_argument("--partition", choices=("two", "four"), default=None)
    p.add_argument("--check-fractions", action="store_true")
    p.add_argument("--emit", help="CSV file for the census (default: stdout)")
    p.set_defaults(func=cmd_converse)

    p = sub.add_parser("schedule", parents=[common], help="super-receiver schedule validation")
    p.add_argument("--algorithm", type=int, choices=(1, 2), required=True)
    p.add_argument("--dt", type=int, required=True)
    p.add_argument("--dr", type=int, required=True)
    p.add_argument("--d", type=_nonnegative_int, default=None)
    p.add_argument("--validate", action="store_true")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("verify-all", parents=[common], help="run every verification suite")
    p.add_argument("--radius", type=_positive_int, default=30)
    p.add_argument("--zf-trials", type=_positive_int, default=100)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _inject_config(argv, parser)
    except (OSError, ValueError) as exc:
        print(f"hexmg: config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_help()
        return USAGE_ERROR
    try:
        return args.func(args)
    except (ValueError, precoding.RankDeficientError, clustering.UncutLatticeError) as exc:
        print(f"hexmg: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:  # e.g. a --radius whose lattice cannot be allocated
        print(f"hexmg: out of memory: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
