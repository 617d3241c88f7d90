"""Command-line front end: single runs, the full comparison protocol,
re-checking stored reports, the brute-force oracle, and the recursion audit.

Options may come from a flat key=value config file (one option per line,
`#` starts a comment, keys match the long flag names). File values become
the command parser's defaults, so argparse converts and checks them as it
does flags; explicit command-line flags override them, and they override
the built-in defaults that each `add_argument` declares.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from collections import Counter

import numpy as np

from .bounds import a_factor, recursion_audit
from .harness import (
    ExperimentReport,
    ScenarioConfig,
    aggregate_report,
    brute_force_oracle,
    default_policies,
    emit_report,
    gen_scenario,
    load_report,
    run_comparison,
    run_table1,
    scenario_params,
)
from .policy import build_schedule, run_policy

__all__ = ["main"]

COST_ALIASES = {"quad": "quadratic", "nonconvex": "nonconvex",
                "setdist": "set_distance"}
M_RULES = {"half": "overlap", "standard": "standard"}  # --m-rule -> named policy
AUDIT_SLACK_FLOOR = -1e-6
RECHECK_REL_TOL = 1e-9


def _parse_n_list(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"N list must be comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"N list must not be empty, got {text!r}")
    repeated = next((N for i, N in enumerate(values) if N in values[:i]), None)
    if repeated is not None:
        raise argparse.ArgumentTypeError(f"N list repeats {repeated}, got {text!r}")
    return values


def _read_config_file(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected key=value, got {raw.strip()!r}"
                )
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _cost_kind(alias: str) -> str:
    if alias not in COST_ALIASES:
        raise ValueError(
            f"cost must be one of {sorted(COST_ALIASES)}, got {alias!r}"
        )
    return COST_ALIASES[alias]


def _pick_policy(N: int, M, m_rule: str) -> tuple:
    """(label, M): an explicit M takes the first named policy it matches."""
    policies = default_policies(N)
    if M is not None:
        return next((name for name, M_p in policies if M_p == M), "custom"), M
    if m_rule not in M_RULES:
        raise ValueError(f"m-rule must be half or standard, got {m_rule!r}")
    return M_RULES[m_rule], dict(policies)[M_RULES[m_rule]]


def _emit(report: ExperimentReport, fmt: str, out) -> None:
    if out is None:
        emit_report(report, fmt, sys.stdout)
    else:
        emit_report(report, fmt, out)
        print(f"wrote {len(report.rows)} rows to {out}", file=sys.stderr)


def _cmd_run(args) -> int:
    kind = _cost_kind(args.cost)
    policy, M = _pick_policy(args.N, args.M, args.m_rule)
    cfg = ScenarioConfig(cost_kind=kind, n=args.n, m=args.m, T=args.T, N=args.N)
    sc = gen_scenario(args.seed, cfg)
    sc = dataclasses.replace(sc, policies=((policy, M),))
    rows = run_comparison(sc)
    report = ExperimentReport(
        config={
            "command": "run", "seed": args.seed, "cost": args.cost,
            "n": args.n, "m": args.m, "T": args.T, "N": args.N,
            "M": M, "policy": policy,
        },
        rows=rows,
    )
    _emit(report, args.format, args.out)
    return 0


def _cmd_table1(args) -> int:
    base = ScenarioConfig(n=args.n, m=args.m, T=args.T, N=min(args.N_list))
    report = run_table1(iters=args.iters, N_list=args.N_list, config=base)
    _emit(report, args.format, args.out)
    print("aggregate disturbance gain (mean cost / mean energy):",
          file=sys.stderr)
    finite = Counter((r.cost_kind, r.policy, r.N) for r in report.rows
                     if math.isfinite(r.bound))
    for cell in aggregate_report(report):
        k = finite[cell.cost_kind, cell.policy, cell.N]
        print(f"  {cell.cost_kind:13s} {cell.policy:8s} N={cell.N:<3d} "
              f"gain={cell.gain:.6f} over {cell.count} runs "
              f"finite_bounds={k}/{cell.count}", file=sys.stderr)
    return 0


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RECHECK_REL_TOL * max(1.0, abs(a), abs(b))


def _replay(args, command: str, noun: str, check) -> int:
    """Replay every row of a stored report and print one line per row.

    Rows sharing a scenario (the overlap and standard rows of one seed)
    share its envelope constants, which are computed once; a non-quadratic
    scenario has none (params None). `check(row, sc, params)` returns the
    rest of the row's line and whether the row passed.
    """
    report = load_report(args.infile)
    envelopes = {}
    failures = 0
    for i, row in enumerate(report.rows):
        key = (row.seed, row.cost_kind, row.n, row.m, row.T, row.N)
        if key not in envelopes:
            sc = gen_scenario(row.seed, ScenarioConfig(
                cost_kind=row.cost_kind, n=row.n, m=row.m, T=row.T, N=row.N))
            envelopes[key] = sc, scenario_params(sc)
        text, ok = check(row, *envelopes[key])
        print(f"row {i}: seed={row.seed} {row.cost_kind} {row.policy} "
              f"N={row.N} M={row.M} {text}")
        failures += not ok
    print(f"{command}: {len(report.rows)} rows, {failures} {noun}")
    return 1 if failures else 0


def _recheck(row, sc, params) -> tuple:
    # the row as table1 and run make it, from the cached constants
    [new] = run_comparison(dataclasses.replace(sc, policies=((row.policy, row.M),)),
                           params)
    problems = []
    if not _close(new.J, row.J):
        problems.append(f"J {new.J!r} != stored {row.J!r}")
    if not _close(new.bound, row.bound):
        problems.append(f"bound {new.bound!r} != stored {row.bound!r}")
    if new.satisfied != row.satisfied:
        problems.append(f"satisfied {new.satisfied} != stored {row.satisfied}")
    verdict = "ok" if not problems else "MISMATCH: " + "; ".join(problems)
    return (f"J={row.J:.6g} bound={row.bound:.6g} "
            f"satisfied={str(row.satisfied).lower()} recheck={verdict}",
            not problems)


def _audit_row(row, sc, params) -> tuple:
    sched = build_schedule(row.N, row.M, row.T)
    # nothing to audit without an envelope, or at or below the stability
    # threshold, where the contraction factor is undefined
    if params is None:
        return (f"skipped: no envelope for {type(sc.costs).__name__}: the recursion "
                f"needs finite alpha_hi and gamma_bar_sq"), True
    try:
        a_factor(params.beta, row.M)
    except ValueError as exc:
        return f"skipped: {exc}", True
    res = run_policy(sc.sys, sc.costs, sc.w_full, sc.x1, sched)
    try:
        slacks = recursion_audit(res, params, sc.sys, sc.costs, sc.w_full)
    except (ValueError, RuntimeError) as exc:
        return f"FAIL: {exc}", False
    if not slacks:
        return "skipped: no pair of full-length windows", True
    worst = min(slacks)
    ok = worst >= AUDIT_SLACK_FLOOR
    return (f"intervals={len(slacks)} min_slack={worst:.3e} "
            f"{'pass' if ok else 'FAIL'}", ok)


def _cmd_certify(args) -> int:
    return _replay(args, "certify", "mismatches", _recheck)


def _cmd_audit(args) -> int:
    return _replay(args, "audit", "failures", _audit_row)


def _cmd_oracle(args) -> int:
    kind = _cost_kind(args.cost)
    cfg = ScenarioConfig(cost_kind=kind, n=args.n, m=args.m,
                         T=args.T, N=args.T)  # full preview: one window
    sc = gen_scenario(args.seed, cfg)
    J_grid, u_star = brute_force_oracle(sc, args.grid_res, args.u_box)
    sched = build_schedule(sc.N, dict(sc.policies)["standard"], sc.T)
    res = run_policy(sc.sys, sc.costs, sc.w_full, sc.x1, sched)
    diff = res.J - J_grid
    print(f"J_grid={J_grid!r}")
    print(f"J_policy={res.J!r}")
    print(f"diff={diff!r}")
    print("u_star=" + np.array2string(u_star.ravel(), separator=","))
    return 0


def build_parser() -> tuple:
    """(parser, each command's parser by name, config-file keys).

    The keys are the dests of every option of every command but --config;
    a file may set any of them, and a command ignores the ones it lacks.
    """
    parser = argparse.ArgumentParser(
        prog="prhc",
        description="Receding-horizon control with overlapping planning "
                    "windows: experiments, certificates, and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    file_keys = set()

    def command(name, func, help):
        p = commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def option(p, *flags, **kwargs):
        file_keys.add(p.add_argument(*flags, **kwargs).dest)

    def add_dims(p):
        # the commands that take sizes are the ones that take a config file
        option(p, "--n", type=int, default=2,
               help="state dimension (default %(default)s)")
        option(p, "--m", type=int, default=1,
               help="input dimension (default %(default)s)")
        option(p, "--T", type=int, default=15,
               help="task length (default %(default)s)")
        p.add_argument("--config", help="key=value option file; flags win")

    def add_scenario_flags(p):
        option(p, "--seed", type=int, default=0,
               help="scenario seed (default %(default)s)")
        option(p, "--cost", choices=sorted(COST_ALIASES), default="quad",
               help="cost family (default %(default)s)")
        add_dims(p)

    def add_output_flags(p):
        option(p, "--out", help="output path (default stdout)")
        option(p, "--format", choices=("csv", "json"), default="csv",
               help="output format (default %(default)s)")

    def add_infile(p):
        option(p, "--in", dest="infile", required=True,
               help="stored report (csv or json)")

    run_p = command("run", _cmd_run, "run one scenario under one policy")
    add_scenario_flags(run_p)
    option(run_p, "--N", type=int, default=6,
           help="preview length (default %(default)s)")
    option(run_p, "--M", type=int, help="explicit overlap; wins over --m-rule")
    option(run_p, "--m-rule", dest="m_rule", choices=sorted(M_RULES),
           default="half",
           help="overlap rule when --M is absent (default %(default)s)")
    add_output_flags(run_p)

    t1_p = command("table1", _cmd_table1, "full policy-comparison protocol")
    option(t1_p, "--iters", type=int, default=10,
           help="seeds per cell (default %(default)s)")
    option(t1_p, "--N-list", dest="N_list", type=_parse_n_list, default="6,9",
           help="comma-separated preview lengths (default %(default)s)")
    add_dims(t1_p)
    add_output_flags(t1_p)

    cert_p = command("certify", _cmd_certify,
                     "replay a stored report and re-check bounds")
    add_infile(cert_p)

    or_p = command("oracle", _cmd_oracle,
                   "brute-force grid check of the full-preview run")
    add_scenario_flags(or_p)
    option(or_p, "--grid-res", dest="grid_res", type=float, default=1e-3,
           help="grid spacing (default %(default)s)")
    option(or_p, "--u-box", dest="u_box", type=float, default=2.0,
           help="input box half-width (default %(default)s)")

    audit_p = command("audit", _cmd_audit, "recursion audit of a stored report")
    add_infile(audit_p)

    for p in (run_p, t1_p, cert_p, audit_p):
        option(p, "--sample-budget", dest="sample_budget",
               help="accepted for compatibility and ignored")
    return parser, commands, file_keys


def main(argv=None) -> int:
    parser, commands, file_keys = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # file values become the command's defaults and the command line
            # is parsed again: flags still win, and argparse converts and
            # checks file values as it does flags
            values = _read_config_file(args.config)
            unknown = set(values) - file_keys
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            commands[args.command].set_defaults(**values)
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
