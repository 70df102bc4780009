"""Command-line surface: experiment sweeps, CSV/table reporting and trace
replay.

Exit codes: 0 success, 1 replay mismatch, 2 usage or validation error.
CSV columns are fixed: ``ratio,traditional,full,approx_identified,
approx_discovered``.
"""

from __future__ import annotations

import os
import random
import sys
from typing import List, Optional, Sequence, Tuple

import click

from .harness import (
    CaseStudyConfig,
    Metrics,
    RandomConfig,
    generate_case_study,
    generate_random,
    repetition_seed,
    run_experiment,
    run_monitor,
    simulate,
)
from .monitor import APPROXIMATE, FULL, TRADITIONAL, VARIANTS, SensorFault
from .reconstruction import KnowledgeFault
from .scenario import load_scenario
from .trace import TraceError, read_trace, replay_trace, write_trace

CSV_HEADER = "ratio,traditional,full,approx_identified,approx_discovered"
SWEEP_RATIOS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

# Above these sizes the exhaustive variant's search space explodes; require
# an explicit override.
FULL_GUARD_OFFICES = 10
FULL_GUARD_ROBOTS = 5
FULL_GUARD_AGENTS = 5
FULL_GUARD_ACTIONS = 16


def _variants(choice: str) -> Tuple[str, ...]:
    if choice == "all":
        return (TRADITIONAL, FULL, APPROXIMATE)
    return (choice,)


def _rate(metrics: Metrics, variant: str, field: str, denom: str) -> Optional[float]:
    if variant not in metrics.pooled:
        return None
    return metrics.pooled_rate(variant, field, denom)


def _csv_row(ratio: float, cells: Sequence[Optional[float]]) -> str:
    return ",".join(
        [f"{ratio:.2f}"] + ["" if c is None else f"{c:.2f}" for c in cells]
    )


def _table(rows: List[Tuple[float, List[Optional[float]]]]) -> str:
    headers = CSV_HEADER.split(",")
    body = [
        [f"{ratio:.2f}"] + ["-" if c is None else f"{c:6.2f}" for c in cells]
        for ratio, cells in rows
    ]
    widths = [max(len(h), *(len(r[i]) for r in body)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for r in body:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def _emit(csv_text: str, table_text: str, out: Optional[str]) -> None:
    click.echo(table_text)
    if out:
        directory = os.path.dirname(out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        click.echo(f"wrote {out}")
    else:
        click.echo(csv_text)


def _default_out(name: Optional[str]) -> Optional[str]:
    base = os.environ.get("NORMMON_OUT_DIR")
    if base and name:
        return os.path.join(base, name)
    return name


# The CSV columns after the ratio: (variant, detection mode).
_COLUMNS = (
    (TRADITIONAL, "identified"),
    (FULL, "identified"),
    (APPROXIMATE, "identified"),
    (APPROXIMATE, "discovered"),
)


def _rows(
    sweep: List[Tuple[float, Metrics]], events: str
) -> List[Tuple[float, List[Optional[float]]]]:
    """One row per ratio; ``events`` is "violations" or "fulfilments"."""
    return [
        (ratio, [_rate(metrics, v, f"{mode}_{events}", f"gt_{events}") for v, mode in _COLUMNS])
        for ratio, metrics in sweep
    ]


def _csv(rows: List[Tuple[float, List[Optional[float]]]]) -> str:
    return "\n".join([CSV_HEADER] + [_csv_row(r, cells) for r, cells in rows]) + "\n"


def _config(cls, **fields):
    try:
        return cls(**fields)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _write_first_rep_trace(cfg, generator, variant: str, path: str) -> None:
    rng = random.Random(repetition_seed(cfg.seed, 0))
    scenario = generator(cfg, rng)
    log = simulate(scenario, cfg.steps, rng)
    records = run_monitor(scenario, log, variant)
    write_trace(path, scenario, cfg.seed, variant, records, executed=log.executed)
    click.echo(f"wrote {path}")


@click.group()
def main() -> None:
    """Norm monitoring experiments under partial action observability."""


@main.command("case-study")
@click.option("--offices-min", default=3, show_default=True)
@click.option("--offices-max", default=10, show_default=True)
@click.option("--robots-min", default=2, show_default=True)
@click.option("--robots-max", default=5, show_default=True)
@click.option("--camera-ratio", type=float, default=None, help="Single ratio in [0,1].")
@click.option("--sweep", is_flag=True, help="Sweep ratios 0, 0.2, …, 1.")
@click.option("--steps", default=100, show_default=True)
@click.option("--reps", default=100, show_default=True)
@click.option(
    "--variant",
    type=click.Choice(VARIANTS + ("all",)),
    default="all",
    show_default=True,
)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, help="CSV output path.")
@click.option("--trace", "trace_path", default=None, help="Write the first repetition's trace here.")
@click.option("--force", is_flag=True, help="Run the full variant beyond the size guard.")
def cmd_case_study(
    offices_min,
    offices_max,
    robots_min,
    robots_max,
    camera_ratio,
    sweep,
    steps,
    reps,
    variant,
    seed,
    out,
    trace_path,
    force,
):
    """Office/robot collision-avoidance experiment (camera observability)."""
    if reps < 1:
        raise click.UsageError("--reps must be at least 1")
    if sweep == (camera_ratio is not None):
        raise click.UsageError("give exactly one of --camera-ratio or --sweep")
    variants = _variants(variant)
    if FULL in variants and not force:
        if offices_max > FULL_GUARD_OFFICES or robots_max > FULL_GUARD_ROBOTS:
            raise click.UsageError(
                f"full variant is exponential; refusing offices > {FULL_GUARD_OFFICES} "
                f"or robots > {FULL_GUARD_ROBOTS} without --force"
            )
    configs = [
        _config(
            CaseStudyConfig,
            offices_min=offices_min,
            offices_max=offices_max,
            robots_min=robots_min,
            robots_max=robots_max,
            camera_ratio=ratio,
            steps=steps,
            repetitions=reps,
            seed=seed,
        )
        for ratio in (SWEEP_RATIOS if sweep else (camera_ratio,))
    ]
    results = [
        (cfg.camera_ratio, run_experiment(cfg, variants, generate_case_study))
        for cfg in configs
    ]
    rows = _rows(results, "violations")
    _emit(_csv(rows), _table(rows), _default_out(out))
    if trace_path:
        if variant == "all":
            raise click.UsageError("--trace needs a single --variant")
        _write_first_rep_trace(configs[0], generate_case_study, variant, _default_out(trace_path))


@main.command("random")
@click.option("--agents-min", default=1, show_default=True)
@click.option("--agents-max", default=5, show_default=True)
@click.option(
    "--actions",
    "actions_list",
    multiple=True,
    type=int,
    default=(8,),
    show_default=True,
    help="Action counts to run (repeatable for a sweep).",
)
@click.option("--obs-prob", type=float, default=None, help="Single probability in [0,1].")
@click.option("--sweep", is_flag=True, help="Sweep probabilities 0, 0.2, …, 1.")
@click.option("--steps", default=100, show_default=True)
@click.option("--reps", default=100, show_default=True)
@click.option(
    "--variant",
    type=click.Choice(VARIANTS + ("all",)),
    default="all",
    show_default=True,
)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, help="CSV output prefix (writes <prefix>_violations.csv and <prefix>_fulfilments.csv).")
@click.option("--trace", "trace_path", default=None, help="Write the first repetition's trace here.")
@click.option("--force", is_flag=True, help="Run the full variant beyond the size guard.")
def cmd_random(
    agents_min,
    agents_max,
    actions_list,
    obs_prob,
    sweep,
    steps,
    reps,
    variant,
    seed,
    out,
    trace_path,
    force,
):
    """Randomly generated domains (probabilistic observability)."""
    if reps < 1:
        raise click.UsageError("--reps must be at least 1")
    if sweep == (obs_prob is not None):
        raise click.UsageError("give exactly one of --obs-prob or --sweep")
    variants = _variants(variant)
    if FULL in variants and not force:
        if agents_max > FULL_GUARD_AGENTS or max(actions_list) > FULL_GUARD_ACTIONS:
            raise click.UsageError(
                f"full variant is exponential; refusing agents > {FULL_GUARD_AGENTS} "
                f"or actions > {FULL_GUARD_ACTIONS} without --force"
            )
    first = None
    for n_actions in actions_list:
        configs = [
            _config(
                RandomConfig,
                agents=agents_min,
                agents_max=agents_max,
                actions=n_actions,
                observation_probability=prob,
                steps=steps,
                repetitions=reps,
                seed=seed,
            )
            for prob in (SWEEP_RATIOS if sweep else (obs_prob,))
        ]
        first = first or configs[0]
        results = [
            (cfg.observation_probability, run_experiment(cfg, variants, generate_random))
            for cfg in configs
        ]
        if len(actions_list) > 1:
            click.echo(f"# actions = {n_actions}")
        for label in ("violations", "fulfilments"):
            click.echo(f"-- {label} --")
            rows = _rows(results, label)
            path = _default_out(f"{out}_{label}.csv") if out else None
            _emit(_csv(rows), _table(rows), path)
    if trace_path:
        if variant == "all":
            raise click.UsageError("--trace needs a single --variant")
        _write_first_rep_trace(first, generate_random, variant, _default_out(trace_path))


@main.command("replay")
@click.argument("trace", type=click.Path(exists=True, dir_okay=False))
@click.argument("scenario", type=click.Path(exists=True, dir_okay=False))
def cmd_replay(trace, scenario):
    """Re-run the monitor on a recorded trace and compare verdicts."""
    try:
        sc = load_scenario(scenario)
        header, rows = read_trace(trace)
        diffs, records = replay_trace(sc, header, rows)
    except (TraceError, ValueError, SensorFault, KnowledgeFault) as exc:
        raise click.UsageError(str(exc))
    for rec in records:
        if rec.reconstructed:
            click.echo(
                f"tick {rec.tick}: R={{{', '.join(str(a) for a in rec.reconstructed)}}}"
            )
        if rec.discovered:
            click.echo(
                f"tick {rec.tick}: D={{{', '.join(str(a) for a in rec.discovered)}}}"
            )
    if diffs:
        for d in diffs:
            click.echo(d)
        click.echo(f"{len(diffs)} mismatches")
        sys.exit(1)
    click.echo("0 mismatches")


if __name__ == "__main__":
    main()
