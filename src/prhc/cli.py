"""Command-line front end: single runs, the full comparison protocol,
re-checking stored reports, the brute-force oracle, and the recursion audit.

Options may come from a flat key=value config file (one option per line,
`#` starts a comment, keys match the long flag names); explicit command-line
flags override file values, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from collections import Counter

import numpy as np

from .bounds import certify, recursion_audit
from .costs import sigma_eval
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


def _parse_n_list(text) -> tuple:
    try:
        values = tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"N list must be comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"N list must not be empty, got {text!r}")
    return values


# option name -> (coercion from config-file string, built-in default)
_OPTION_SPEC = {
    "seed": (int, 0),
    "cost": (str, "quad"),
    "n": (int, 2),
    "m": (int, 1),
    "T": (int, 15),
    "N": (int, 6),
    "M": (int, None),
    "m_rule": (str, "half"),
    "out": (str, None),
    "format": (str, "csv"),
    "sample_budget": (str, None),  # known so older config files load; unread
    "iters": (int, 10),
    "N_list": (_parse_n_list, (6, 9)),
    "grid_res": (float, 1e-3),
    "u_box": (float, 2.0),
    "infile": (str, None),
}


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


def _resolve(args, names) -> dict:
    """Layer option sources: defaults, then config file, then CLI flags."""
    file_vals = {}
    if getattr(args, "config", None):
        file_vals = _read_config_file(args.config)
        unknown = set(file_vals) - set(_OPTION_SPEC)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    opts = {}
    for name in names:
        coerce, default = _OPTION_SPEC[name]
        value = getattr(args, name, None)
        if value is None and name in file_vals:
            value = coerce(file_vals[name])
        if value is None:
            value = default
        opts[name] = value
    return opts


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
        M = int(M)
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
    opts = _resolve(args, ("seed", "cost", "n", "m", "T", "N", "M", "m_rule",
                           "out", "format"))
    kind = _cost_kind(opts["cost"])
    policy, M = _pick_policy(opts["N"], opts["M"], opts["m_rule"])
    cfg = ScenarioConfig(cost_kind=kind, n=opts["n"], m=opts["m"],
                         T=opts["T"], N=opts["N"])
    sc = gen_scenario(opts["seed"], cfg)
    sc = dataclasses.replace(sc, policies=((policy, M),))
    rows = run_comparison(sc)
    report = ExperimentReport(
        config={
            "command": "run", "seed": opts["seed"], "cost": opts["cost"],
            "n": opts["n"], "m": opts["m"], "T": opts["T"], "N": opts["N"],
            "M": M, "policy": policy,
        },
        rows=rows,
    )
    _emit(report, opts["format"], opts["out"])
    return 0


def _cmd_table1(args) -> int:
    opts = _resolve(args, ("iters", "N_list", "n", "m", "T", "out", "format"))
    base = ScenarioConfig(n=opts["n"], m=opts["m"], T=opts["T"],
                          N=min(opts["N_list"]))
    report = run_table1(iters=opts["iters"], N_list=opts["N_list"], config=base)
    _emit(report, opts["format"], opts["out"])
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
    scenario has none (params None). `check(row, sc, params, sched, res)`
    returns the rest of the row's line and whether the row passed.
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
        sc, params = envelopes[key]
        sched = build_schedule(row.N, row.M, row.T)
        res = run_policy(sc.sys, sc.costs, sc.w_full, sc.x1, sched)
        text, ok = check(row, sc, params, sched, res)
        print(f"row {i}: seed={row.seed} {row.cost_kind} {row.policy} "
              f"N={row.N} M={row.M} {text}")
        failures += not ok
    print(f"{command}: {len(report.rows)} rows, {failures} {noun}")
    return 1 if failures else 0


def _recheck(row, sc, params, sched, res) -> tuple:
    cert = certify(res, params, sched,
                   sigma_x1=float(sigma_eval(sc.costs, sc.x1)))
    problems = []
    if not _close(res.J, row.J):
        problems.append(f"J {res.J!r} != stored {row.J!r}")
    if not _close(cert.bound, row.bound):
        problems.append(f"bound {cert.bound!r} != stored {row.bound!r}")
    if cert.satisfied != row.satisfied:
        problems.append(f"satisfied {cert.satisfied} != stored {row.satisfied}")
    verdict = "ok" if not problems else "MISMATCH: " + "; ".join(problems)
    return (f"J={row.J:.6g} bound={row.bound:.6g} "
            f"satisfied={str(row.satisfied).lower()} recheck={verdict}",
            not problems)


def _audit_row(row, sc, params, sched, res) -> tuple:
    try:
        slacks = recursion_audit(res, params, sc.sys, sc.costs, sc.w_full)
    except ValueError as exc:
        # no envelope, or a contraction factor undefined below the
        # stability threshold; nothing to audit for such rows
        return f"skipped: {exc}", True
    worst = min(slacks) if slacks else float("nan")
    ok = (not slacks) or worst >= AUDIT_SLACK_FLOOR
    return (f"intervals={len(slacks)} min_slack={worst:.3e} "
            f"{'pass' if ok else 'FAIL'}", ok)


def _cmd_certify(args) -> int:
    return _replay(args, "certify", "mismatches", _recheck)


def _cmd_audit(args) -> int:
    return _replay(args, "audit", "failures", _audit_row)


def _cmd_oracle(args) -> int:
    opts = _resolve(args, ("seed", "cost", "n", "m", "T", "grid_res", "u_box"))
    kind = _cost_kind(opts["cost"])
    cfg = ScenarioConfig(cost_kind=kind, n=opts["n"], m=opts["m"],
                         T=opts["T"], N=opts["T"])  # full preview: one window
    sc = gen_scenario(opts["seed"], cfg)
    J_grid, u_star = brute_force_oracle(sc, opts["grid_res"], opts["u_box"])
    sched = build_schedule(sc.N, dict(sc.policies)["standard"], sc.T)
    res = run_policy(sc.sys, sc.costs, sc.w_full, sc.x1, sched)
    diff = res.J - J_grid
    print(f"J_grid={J_grid!r}")
    print(f"J_policy={res.J!r}")
    print(f"diff={diff!r}")
    print("u_star=" + np.array2string(u_star.ravel(), separator=","))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prhc",
        description="Receding-horizon control with overlapping planning "
                    "windows: experiments, certificates, and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p, with_N=True):
        p.add_argument("--seed", type=int, help="scenario seed (default 0)")
        p.add_argument("--cost", choices=sorted(COST_ALIASES),
                       help="cost family (default quad)")
        p.add_argument("--n", type=int, help="state dimension (default 2)")
        p.add_argument("--m", type=int, help="input dimension (default 1)")
        p.add_argument("--T", type=int, help="task length (default 15)")
        if with_N:
            p.add_argument("--N", type=int, help="preview length (default 6)")
        p.add_argument("--config", help="key=value option file; flags win")

    run_p = sub.add_parser("run", help="run one scenario under one policy")
    add_scenario_flags(run_p)
    run_p.add_argument("--M", type=int,
                       help="explicit overlap; wins over --m-rule")
    run_p.add_argument("--m-rule", dest="m_rule", choices=("half", "standard"),
                       help="overlap rule when --M is absent (default half)")
    run_p.add_argument("--out", help="output path (default stdout)")
    run_p.add_argument("--format", choices=("csv", "json"),
                       help="output format (default csv)")
    run_p.set_defaults(func=_cmd_run)

    t1_p = sub.add_parser("table1", help="full policy-comparison protocol")
    t1_p.add_argument("--iters", type=int, help="seeds per cell (default 10)")
    t1_p.add_argument("--N-list", dest="N_list", type=_parse_n_list,
                      help="comma-separated preview lengths (default 6,9)")
    t1_p.add_argument("--n", type=int, help="state dimension (default 2)")
    t1_p.add_argument("--m", type=int, help="input dimension (default 1)")
    t1_p.add_argument("--T", type=int, help="task length (default 15)")
    t1_p.add_argument("--out", help="output path (default stdout)")
    t1_p.add_argument("--format", choices=("csv", "json"),
                      help="output format (default csv)")
    t1_p.add_argument("--config", help="key=value option file; flags win")
    t1_p.set_defaults(func=_cmd_table1)

    cert_p = sub.add_parser("certify",
                            help="replay a stored report and re-check bounds")
    cert_p.add_argument("--in", dest="infile", required=True,
                        help="stored report (csv or json)")
    cert_p.set_defaults(func=_cmd_certify)

    or_p = sub.add_parser("oracle",
                          help="brute-force grid check of the full-preview run")
    add_scenario_flags(or_p, with_N=False)
    or_p.add_argument("--grid-res", dest="grid_res", type=float,
                      help="grid spacing (default 1e-3)")
    or_p.add_argument("--u-box", dest="u_box", type=float,
                      help="input box half-width (default 2.0)")
    or_p.set_defaults(func=_cmd_oracle)

    audit_p = sub.add_parser("audit",
                             help="recursion audit of a stored report")
    audit_p.add_argument("--in", dest="infile", required=True,
                         help="stored report (csv or json)")
    audit_p.set_defaults(func=_cmd_audit)

    for p in (run_p, t1_p, cert_p, audit_p):
        p.add_argument("--sample-budget", dest="sample_budget",
                       help="accepted for compatibility and ignored")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
