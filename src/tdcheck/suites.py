"""Reproducible multi-trial verification sweeps.

Each sweep draws per-trial contexts from seeds derived deterministically from
the master seed, runs the requested checks and returns one report whose check
ids carry the trial number and whose details carry the trial seed, so any
failure can be replayed in isolation.  The module table is parsed once per
sweep.  Trials are independent, which makes --jobs parallelism safe; results
are assembled in trial order regardless of the worker count.
"""

from __future__ import annotations

import os
from functools import partial
from typing import List

from .fields import Field, derive_seed, field_echo
from .params import (
    ContextError,
    random_admissible_context,
    random_valid_parameter_array,
)
from .realization import (
    RealizationError,
    mu_certificate,
    realize,
    shape_check,
    verify_relations,
)
from .report import Check, VerificationReport
from .tables import FORMAT_VERSION, EvaluationError, ModuleTable, load_table
from .tdsystem import roundtrip
from .zigzag import feasible_rank_test


def _realized(checks_of):
    """A trial that realizes the table at a random admissible context and
    runs `checks_of` on the realization; a coefficient with a pole at that
    point, or a family whose minimal polynomial fails when the checks first
    read it, fails the trial at realize."""

    def trial(table: ModuleTable, field: Field, seed: int) -> List[Check]:
        ctx = random_admissible_context(table.d, field, seed)
        try:
            return [Check("realize", True)] + checks_of(realize(table, ctx, field))
        except EvaluationError as err:
            return [Check("realize.evaluate", False, str(err))]
        except RealizationError as err:
            return [Check("realize." + err.name, False, err.detail)]

    return trial


def _roundtrip_trial(table: ModuleTable, field: Field, seed: int) -> List[Check]:
    return roundtrip(random_valid_parameter_array(table.d, field, seed), field, table).checks


# Per-trial checks of each sweep, keyed by the report's command name.  Each
# check function is looked up by name at call time, so a wrapper later bound
# to that module name (perfbench's tracer) sees every call.
SWEEPS = {
    "verify-appendix": _realized(lambda real: verify_relations(real) + mu_certificate(real)),
    "mu-certificate": _realized(lambda real: mu_certificate(real)),
    "shape": _realized(lambda real: shape_check(real)),
    "zz-rank": _realized(lambda real: feasible_rank_test(real)),
    "tds-roundtrip": _roundtrip_trial,
}


def _trial_checks(
    command: str, table: ModuleTable, field: Field, master_seed: int, trial: int
) -> List[Check]:
    """One trial of one sweep; module-level so process pools can pickle it.
    A sampler that finds no point fails the trial as one `sample` check."""
    seed = derive_seed(master_seed, trial)
    prefix = f"t{trial:03d}."
    tag = f"trial {trial}, seed {seed}"
    try:
        checks = SWEEPS[command](table, field, seed)
    except ContextError as err:
        checks = [Check("sample", False, str(err))]
    return [
        Check(prefix + c.id, c.passed, f"{tag}: {c.detail}" if c.detail else tag)
        for c in checks
    ]


def run_sweep(
    command: str,
    d: int,
    field: Field,
    seed: int,
    trials: int,
    assets=None,
    jobs: int = 1,
) -> VerificationReport:
    """`trials` seeded trials of the sweep named `command` (a SWEEPS key)."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    table = load_table(d, assets)
    rep = VerificationReport(
        command=command,
        field=field_echo(field),
        seed=seed,
        asset_version=FORMAT_VERSION,
        trials=trials,
    )
    one_trial = partial(_trial_checks, command, table, field, seed)
    if jobs > 1 and trials > 1:
        # imported here, so a --jobs 1 run never loads multiprocessing; the pool
        # starts all of its workers up front: never more than trials or CPUs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, trials, os.cpu_count() or 1)) as pool:
            results = list(pool.map(one_trial, range(trials)))
    else:
        results = [one_trial(t) for t in range(trials)]
    for checks in results:
        rep.checks.extend(checks)
    return rep

