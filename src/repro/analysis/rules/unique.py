"""``slow-unique``: id-array dedup goes through ``unique_sorted``.

numpy 2.x's ``np.unique`` hashes integer input before sorting the
survivors; on the id arrays of sampling, block generation, the
scheduler's reachability walks and the feature store that costs about
ten times one ``np.sort`` plus a neighbour mask, once per micro-batch
per layer.  :func:`repro.arrays.unique_sorted` gives the same output
the fast way, so a bare ``np.unique(x)`` is flagged.

Calls passing a ``return_*`` keyword (counts, index, inverse) are
exempt: ``unique_sorted`` does not provide those outputs.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.framework import FileContext, LintRule, register_rule

#: Offline tooling where np.unique is not on the training hot path.
_EXEMPT_PREFIXES = ("src/repro/analysis/", "src/repro/bench/")


@register_rule
class SlowUniqueRule(LintRule):
    name = "slow-unique"
    description = (
        "np.unique(...) without return_* outputs; use "
        "repro.arrays.unique_sorted"
    )
    invariant = (
        "host bookkeeping stays a small share of an iteration (paper "
        "Fig. 11): distinct-id reductions on the hot path use one sort"
    )
    default_scopes = ("src/repro",)

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.relpath.replace("\\", "/").startswith(_EXEMPT_PREFIXES):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.imports.resolve(node.func) != "numpy.unique":
                continue
            if any(
                kw.arg is not None and kw.arg.startswith("return_")
                for kw in node.keywords
            ):
                continue
            findings.append(
                self.finding(
                    ctx,
                    node,
                    "np.unique(...) hashes integer input; use "
                    "repro.arrays.unique_sorted for the sorted distinct "
                    "values",
                )
            )
        return findings
