"""Command-line entry point wiring all modules together.

Subcommands: ``lattice``, ``cluster``, ``region``, ``zf``, ``converse``,
``schedule``, ``verify-all``.  Every command takes ``--config FILE`` (a flat
``key = value`` file mirroring flag names; explicit flags override config
values), every command but ``schedule``, which writes no file, takes ``--out
DIR``, and only ``zf`` and ``verify-all``, whose trials draw channels, take
``--seed S``.  ``region`` makes each of its two choices with one flag:
``--bound inner|outer|both`` and ``--t T`` or ``--t all`` for every
admissible t.  ``converse`` takes the four-colour partition iff ``--d`` is
given.  Exit codes: 0 success, 1 verification or validation failure, 2 usage
error.  All emitted files are byte-identical for identical configurations.

Importing this module loads the standard library and the numpy-free
modules ``regions``, ``schedules``, ``densities`` and ``schemes``, no numpy.
So ``region``, ``schedule``, ``--help`` and every usage error the parser
finds run on the standard library alone.  Each other command imports the
array modules it uses when it runs, and numpy with them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import regions, schedules, schemes
from .regions import decimal_str

USAGE_ERROR = 2
CHECK_FAILED = 1

#: Largest accepted ``region --samples``.  Each sample is a pair of exact
#: fractions: 10,000 take about 0.3 s and 25 MB, and time and memory grow
#: linearly past that.
MAX_SAMPLES = 10_000


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _int_at_least(text: str, least: int, expected: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value, text = None, repr(text)
    if value is None or value < least:
        raise argparse.ArgumentTypeError(f"must be {expected}, got {text}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "a positive integer")


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0, "a non-negative integer")


def _t_choice(text: str):
    """A cluster size t, or ``all`` for every admissible t."""
    return text if text == "all" else _int_at_least(text, 1, "a positive integer or 'all'")


def _sample_count(text: str) -> int:
    value = _int_at_least(text, 2, "an integer of at least 2")
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"{value} samples exceed the cap of {MAX_SAMPLES}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value, text = math.nan, repr(text)
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
    from . import lattice

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
    from . import checks, clustering, lattice

    net = lattice.build_network(args.radius)
    mode = clustering.MODE_MIXED if args.mode == "mixed" else clustering.MODE_SLOW_ONLY
    plan = clustering.assign_messages(clustering.clusters(net, args.t), mode)

    if args.emit:
        # each master cell's orientation-0 sector is its cluster's master user
        master_users = {(*cell, 0) for cell in plan.masters}
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
        f"{plan.cluster_ids.max() + 1} clusters, interior fractions: {frac_str}"
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
    """The t the inner bound visits, None for every admissible t: ``--t``'s
    value, else the mixed dual range's largest t, else (d < 6, where that
    range is empty) every t."""
    if args.t == "all":
        return None
    if args.t is not None:
        return [args.t]
    dual = regions.t_ranges(regions.FAMILY_MIXED, args.d)[0]
    return [dual[-1]] if dual else None


def cmd_region(args: argparse.Namespace) -> int:
    params = regions.SystemParams(m=args.m, mu_tx=args.mu_tx, mu_rx=args.mu_rx, d=args.d)
    ranges = [r for family in (regions.FAMILY_SLOW, regions.FAMILY_MIXED)
              for r in regions.t_ranges(family, args.d)]
    if isinstance(args.t, int) and not any(args.t in r for r in ranges):
        largest = max(r.stop for r in ranges) - 1
        bound = f"t must be at most {largest}" if largest else f"at d = {args.d} no t enters any scheme"
        raise ValueError(f"--t {args.t} enters no scheme for --d {args.d}; {bound}")
    t_values = _default_t_values(args)
    curves: List[Tuple[str, regions.Region]] = []
    if args.bound in ("inner", "both"):
        curves.append(("inner", regions.inner_bound(params, t_values)))
    if args.bound in ("outer", "both"):
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
    from . import precoding

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
    from . import checks, lattice, partitions

    net = lattice.build_network(args.radius)
    if args.d is None:
        kind, part = "two", partitions.partition_two(net)
    else:  # --d spaces the four-colour partition
        kind, part = "four", partitions.partition_four(net, args.d)
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
    from . import checks, precoding

    if args.radius < checks.MIN_RADIUS:
        raise ValueError(f"verify-all needs --radius >= {checks.MIN_RADIUS} "
                         f"(its t=4 checks need radius >= 3t), got {args.radius}")
    precoding.check_trial_count(args.zf_trials)
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


def _option_named(arg: str, options) -> str:
    """The option a ``--`` flag names, matched as argparse matches it:
    exactly, else as the unique option it abbreviates (``--conf`` for
    ``--config``); ``--flag=value`` names ``--flag``."""
    flag = arg.split("=", 1)[0]
    hits = [o for o in options if o.startswith(flag)]
    return flag if flag in options or len(hits) != 1 else hits[0]


def _inject_config(argv: List[str], commands: Dict[str, List[str]]) -> List[str]:
    """Turn config-file entries into flags placed before the explicit ones,
    so an explicit flag wins by argparse's last-wins rule.  ``--config
    FILE`` and ``--config=FILE`` are matched like the command's own flags,
    as ``_build_parser`` recorded them, abbreviations included; argparse
    never sees them, so a second ``--config`` is refused as an unknown
    flag.  Without a command (no ``argv`` token names one) nothing is
    injected, so ``main`` prints the usage."""
    command = next((commands[a] for a in argv if a in commands), None)
    options = ["--config", *(command or ())]
    at = next((i for i, arg in enumerate(argv)
               if arg.startswith("--") and _option_named(arg, options) == "--config"), None)
    if at is None:
        return argv
    _, eq, path = argv[at].partition("=")
    if not eq:
        if at + 1 >= len(argv):
            raise ValueError("--config needs a file path")
        path = argv[at + 1]
    rest = argv[:at] + argv[at + (1 if eq else 2) :]
    if command is None:
        return rest
    flags: List[str] = []
    for key, value in _load_config(path).items():
        if value.lower() == "true":
            flags.append(f"--{key}")
        elif value.lower() == "false":
            continue
        else:
            flags.extend([f"--{key}", value])
    return [rest[0]] + flags + rest[1:]


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, List[str]]]:
    """The parser, and each command's option strings by its name, recorded
    as they are added (argparse keeps its own record in private
    attributes)."""
    parser = argparse.ArgumentParser(
        prog="hexmg",
        description="sectorized hexagonal network multiplexing-gain toolkit",
        epilog="every command also takes --config FILE (or --config=FILE): flat "
        "'key = value' lines named after its flags; explicit flags win",
    )
    sub = parser.add_subparsers(dest="command")
    commands: Dict[str, List[str]] = {}

    def command(name: str, func, summary: str, *, out: bool = True) -> Callable[..., None]:
        """An ``add`` of options to a new command's parser."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        options = commands[name] = []

        def add(*flags: str, **kwargs) -> None:
            p.add_argument(*flags, **kwargs)
            options.extend(flags)

        if out:
            add("--out", help="directory for emitted files")
        return add

    seed = dict(type=_nonnegative_int, default=0,
                help="seed of the first ZF trial's channel draw; trial i draws with seed + i")

    add = command("lattice", cmd_lattice, "build the lattice and emit its interference links")
    add("--radius", type=_positive_int, required=True)
    add("--emit", help="CSV file for the directed interference links")

    add = command("cluster", cmd_cluster, "cluster decomposition and message assignment")
    add("--radius", type=_positive_int, required=True)
    add("--t", type=_positive_int, required=True)
    add("--mode", choices=("slow", "mixed"), default="slow")
    add("--check-counts", action="store_true")
    add("--emit", help="CSV file for per-sector roles")

    add = command("region", cmd_region, "inner/outer multiplexing-gain regions")
    add("--m", type=_positive_int, required=True)
    add("--mu-tx", type=_fraction, default=Fraction(0))
    add("--mu-rx", type=_fraction, default=Fraction(0))
    add("--d", type=_positive_int, required=True)
    add("--bound", choices=("inner", "outer", "both"), default="both")
    add("--format", choices=("csv", "json", "svg"), default="csv")
    add("--samples", type=_sample_count, default=2, help="boundary sample count")
    add("--t", type=_t_choice, default=None,
        help="one cluster parameter, or 'all' for every admissible t (default: "
        "floor((d-2)/4), or every t when d < 6, where that is below 1)")
    add("--emit", help="output file (default: stdout)")

    add = command("zf", cmd_zf, "zero-forcing precoder certification")
    add("--t", type=_positive_int, required=True)
    add("--m", type=_positive_int, required=True)
    add("--trials", type=_positive_int, default=100)
    add("--tol", type=_tolerance, default=schemes.NULLING_TOL)
    add("--scheme", choices=tuple(schemes.SCHEME_MODES), default="s4")
    add("--seed", **seed)
    add("--emit", help="CSV file for per-trial results")

    add = command("converse", cmd_converse, "partition censuses for the outer bound")
    add("--radius", type=_positive_int, required=True)
    add("--d", type=_positive_int, default=None,
        help="spacing of the four-colour partition (default: the two-colour one)")
    add("--check-fractions", action="store_true")
    add("--emit", help="CSV file for the census (default: stdout)")

    add = command("schedule", cmd_schedule, "super-receiver schedule validation", out=False)
    add("--algorithm", type=int, choices=(1, 2), required=True)
    add("--dt", type=int, required=True)
    add("--dr", type=int, required=True)
    add("--d", type=_nonnegative_int, default=None)
    add("--validate", action="store_true")

    add = command("verify-all", cmd_verify_all, "run every verification suite")
    add("--radius", type=_positive_int, default=30)
    add("--zf-trials", type=_positive_int, default=100)
    add("--seed", **seed)

    return parser, commands


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        argv = _inject_config(argv, commands)
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
    except (ValueError, schemes.RankDeficientError, schemes.UncutLatticeError) as exc:
        print(f"hexmg: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:  # e.g. a --radius whose lattice cannot be allocated
        print(f"hexmg: out of memory: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
