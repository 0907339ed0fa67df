"""The per-cell sponsor sweep: each cell a decomposition without reps of
its own table rows and its links cut down to its trials.  It is the test
oracle for the pinned cells of
:func:`trialscope.decompose.sponsor_split_sweep`, which must give the same
rows, error texts included."""

from __future__ import annotations

from trialscope.decompose import SHARE_KEYS, decompose
from trialscope.linker import Links
from trialscope.pz import Z_SIG, OutcomeTable
from trialscope.registry import OutcomeRank


def sponsor_split_sweep(
    table: OutcomeTable,
    links: Links,
    splits,
    cutoff: float = Z_SIG,
    outcome_rank: OutcomeRank = OutcomeRank.PRIMARY,
    min_gap: float = 1e-3,
) -> list[dict]:
    """Explained fraction (ph2_sc - ph2) / (ph3 - ph2) for Large and Small
    groups under every sponsor-split definition, one :func:`decompose` of a
    table subset per distinct cell."""
    links.check(table.trials.ids)
    rows: list[dict] = []
    cache: dict[tuple, dict] = {}
    for split in splits:
        for group in ("Large", "Small"):
            trials = table.group_mask(split, group)
            key = (group, trials.tobytes())
            if key not in cache:
                try:
                    rep = decompose(
                        table.subset(trials[table.trial_code]), links.within(trials),
                        bootstrap_reps=0, cutoff=cutoff, outcome_rank=outcome_rank,
                    )
                    gap, explained = rep.diffs["ph3_minus_ph2"], rep.diffs["ph2_sc_minus_ph2"]
                    flat = abs(gap) < min_gap
                    cell = {
                        **{k: rep.shares[k] for k in SHARE_KEYS},
                        "explained_fraction": None if flat else explained / gap,
                        "error": "degenerate: phase gap below threshold" if flat else "",
                    }
                except (ValueError, RuntimeError) as exc:
                    cell = {**dict.fromkeys(SHARE_KEYS), "explained_fraction": None,
                            "error": str(exc)}
                cache[key] = cell
            rows.append(
                {"criterion": split.criterion, "k": split.k, "group": group, **cache[key]}
            )
    return rows
