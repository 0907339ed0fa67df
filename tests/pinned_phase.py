"""One phase sample of a table pinned as :func:`trialscope.decompose.decompose`
pins it, for tests that build its refit matrix or draw its reps."""

from __future__ import annotations

import numpy as np

from trialscope.decompose import _PinnedPhase
from trialscope.registry import OutcomeRank, Phase


def pinned_phase(table, links, phase: Phase = Phase.PHASE2):
    """The pinned rows of the industry primary outcomes of one phase of
    ``table``, the z of every row (other censors imputed), their
    continuation labels under ``links`` and their phase sample.  The rows
    are those of ``phase_scores(table, phase)``, in the same order."""
    pinned = _PinnedPhase(table, phase, OutcomeRank.PRIMARY)
    _, z, sample = pinned.sample(np.ones(len(table.trials.ids), dtype=bool))
    return pinned.rows, z, links.labels(table.trials.ids)[pinned.rows.trial_code], sample
