"""Command-line front end: named experiments with seeded reproducibility.

Each command runs one experiment of ``experiments`` and writes a
machine-readable report (JSON or CSV).  Exit code 0 means all checks
passed, 1 means a numerical check failed, 2 means an option was invalid;
any other error is a crash, with a traceback and exit code 1.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from dataclasses import dataclass

import click

from . import experiments
# The benchmark's layer test checks that its tracer wraps this alias too.
from .stats import ks_one_sample  # noqa: F401


def _finish(config: dict, checks: list[dict], output: str, fmt: str, t0: float):
    summary = {
        "total": len(checks),
        "passed": sum(1 for c in checks if c["pass"]),
        "failed": sum(1 for c in checks if not c["pass"]),
        "wall_time_s": round(time.time() - t0, 3),
    }
    report = {"config": config, "checks": checks, "summary": summary}
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=["name", "paper_ref", "value", "threshold", "pass"]
        )
        writer.writeheader()
        for c in checks:
            writer.writerow(c)
        text = buf.getvalue()
    if output == "-":
        click.echo(text, nl=False)
    else:
        with open(output, "w") as fh:
            fh.write(text)
    for c in checks:
        status = "pass" if c["pass"] else "FAIL"
        click.echo(f"{status}  {c['name']}: {c['value']:.6g}", err=True)
    if summary["failed"]:
        sys.exit(1)


def _parse_rhos(ctx, param, raw: str) -> list[float]:
    vals = [click.FLOAT.convert(part, param, ctx) for part in raw.split(",")
            if part.strip()]
    if not vals:
        raise click.BadParameter("empty rho list")
    return vals


def _opt(flag: str, default, dest: str | None = None, **kw) -> click.Option:
    """An option shown with its default; its type is the default's type."""
    kw.setdefault("type", type(default))
    decls = [flag] if dest is None else [flag, dest]
    return click.Option(decls, default=default, show_default=True, **kw)


def _rhos(default: str, **kw) -> click.Option:
    return _opt("--rho", default, "rhos", callback=_parse_rhos, **kw)


COUNT = click.IntRange(min=1)
# jump-count's dispersion test needs 2 counts, she-check a base inside its
# grid (size // 2 >= 1) and a KS test 20 samples; parallel-chain's KS test
# reads every 16th of its window + 1 bulk sites.
COUNT2 = click.IntRange(min=2)
KS_COUNT = click.IntRange(min=20)
KS_WINDOW = click.IntRange(min=experiments.KS_WINDOW_MIN)
ALPHA = _opt("--alpha", 2.0)
RHO = _opt("--rho", 1.0)
N = _opt("--n", 3, type=COUNT)
SAMPLES = _opt("--samples", 10000, type=KS_COUNT)
REPLICAS = _opt("--replicas", 10000)
COMMON = (
    _opt("--format", "json", "fmt", type=click.Choice(["json", "csv"])),
    _opt("--output", "-", help="Report path, '-' for stdout."),
    _opt("--seed", 7),
)


@dataclass(frozen=True)
class Experiment:
    """One command: its options and the name of its run_* function in
    ``experiments``.

    The click parameters, seed included, are passed to the run function
    by name and, under their report names, make up the report's config.
    """

    name: str
    run: str
    help: str
    options: tuple[click.Option, ...]


EXPERIMENTS = (
    Experiment("check-intertwine", "run_check_intertwine",
               "Parallel and sequential one-step maps agree through the tuple map.",
               (N, ALPHA, _rhos("0.5,1.0,1.5"), _opt("--window", 4000),
                _opt("--burn-in", 600, "margin", help="Left comparison margin."))),
    Experiment("check-inverse", "run_check_inverse",
               "Inverse maps undo the update and tuple maps.",
               (N, ALPHA, _rhos("0.5,1.0,1.5"), _opt("--window", 4000))),
    Experiment("grsk-verify", "run_grsk_verify",
               "Row insertion reproduces partition functions and the tuple map.",
               (ALPHA, _opt("--window", 3000))),
    Experiment("stationary-cocycle", "run_stationary_cocycle",
               "Exact cocycle identities and stationary marginals on a grid.",
               (ALPHA, RHO, _opt("--window", 20000),
                _opt("--levels", 3, type=COUNT))),
    Experiment("parallel-chain", "run_parallel_chain",
               "Coupled multi-direction stationary chain and its joint laws.",
               (ALPHA, _rhos("1.2,0.4", help="Strictly decreasing list."),
                _opt("--window", 50000, type=KS_WINDOW))),
    Experiment("ppp-busemann", "run_ppp_busemann",
               "Jump-process sampler reproduces the Busemann edge laws.",
               (ALPHA, _opt("--lam", 0.4), _opt("--rho", 1.2),
                _opt("--samples", 100000, type=KS_COUNT))),
    Experiment("jump-count", "run_jump_count",
               "Counts of large jumps match the intensity quadrature.",
               (ALPHA, _opt("--delta", 1.0), _opt("--s-lo", 0.0),
                _opt("--s-hi", 1.0), _opt("--samples", 10000, type=COUNT2))),
    Experiment("zero-temp", "run_zero_temp",
               "Zero-temperature thinning coupling and its reparametrization bound.",
               (_opt("--rho", 0.5), SAMPLES)),
    Experiment("cif-eta", "run_cif_eta",
               "Annealed law of the semi-infinite separating direction.",
               (ALPHA, RHO, REPLICAS)),
    Experiment("cif-xi", "run_cif_xi",
               "Annealed law of the finite-volume separating direction.",
               (ALPHA, RHO, REPLICAS)),
    Experiment("she-check", "run_she_check",
               "Eternal solutions solve the discrete heat recursion exactly.",
               (ALPHA, RHO, _opt("--size", 200, type=COUNT2))),
    Experiment("calibrate-stats", "run_calibrate_stats",
               "False-positive rates of the statistical tests at fixed seeds.",
               (_opt("--trials", 1000, type=COUNT), SAMPLES)),
)

# Report config keys that differ from the click parameter names.
_CONFIG_KEYS = {"rhos": "rho", "margin": "burn_in", "lam": "lambda"}


def _config(name: str, params: dict) -> dict:
    config = {"experiment": name}
    for key, value in params.items():
        config[_CONFIG_KEYS.get(key, key)] = value
    if "s_lo" in config:
        config["s_interval"] = [config.pop("s_lo"), config.pop("s_hi")]
    return config


def _command(exp: Experiment) -> click.Command:
    def callback(output, fmt, **params):
        t0 = time.time()
        # Looked up at call time, so a replaced run_* function is used.
        run = getattr(experiments, exp.run)
        try:
            checks = run(**params)
        except experiments.ConfigError as exc:
            raise click.BadParameter(exc.message, param_hint=f"'{exc.option}'") from None
        _finish(_config(exp.name, params), checks, output, fmt, t0)

    return click.Command(exp.name, callback=callback,
                         params=[*exp.options, *COMMON], help=exp.help)


class _Group(click.Group):
    """A group whose configuration errors exit 2 in-process as well.

    In standalone mode click prints a usage error and exits 2; with
    ``standalone_mode=False`` it re-raises the error instead, so an
    in-process caller could not tell it from a crash.  Here both modes
    print the same message and raise SystemExit with the error's code.
    """

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, **kwargs)
        except click.ClickException as exc:
            exc.show()
            sys.exit(exc.exit_code)


@click.group(cls=_Group)
def main():
    """Experiments for the inverse-gamma polymer's Busemann process."""


for _exp in EXPERIMENTS:
    main.add_command(_command(_exp))


if __name__ == "__main__":
    main()
