"""``hot-alloc``: kernel hot paths draw scratch from the Workspace arena.

The kernel layer exists to stop the aggregation hot path from paying
the allocator per bucket per micro-batch per epoch: scratch (positions,
gathered columns, gradient accumulators) comes from the
:class:`repro.kernels.workspace.Workspace` arena and is reused across
micro-batches.  A per-call ``np.zeros`` / ``np.empty`` (or their
``_like`` variants) inside a kernel-path function re-introduces exactly
the churn the arena removes — and a dtype-less one silently doubles to
float64 on top.

Flagged: calls to the allocating constructors inside any function or
method body under the rule's scopes.  Module-level allocations (caches
built once at import) are exempt, as is ``kernels/workspace.py`` itself
— the arena is the one legitimate owner of kernel scratch.

Intentional owned allocations — arrays that become ``Tensor.data`` or
are captured by backward closures, which must *not* live in the arena —
carry ``# repro: noqa[hot-alloc] <reason>``.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.framework import FileContext, LintRule, register_rule

_ALLOCATORS = frozenset(
    {
        "numpy.zeros",
        "numpy.empty",
        "numpy.zeros_like",
        "numpy.empty_like",
    }
)

#: The arena implementation allocates by design.
_EXEMPT_SUFFIXES = ("kernels/workspace.py",)


@register_rule
class HotAllocRule(LintRule):
    name = "hot-alloc"
    description = (
        "per-call np.zeros/np.empty in kernel hot paths; scratch "
        "belongs to the Workspace arena"
    )
    invariant = (
        "kernel scratch is arena-owned and reused across micro-batches; "
        "per-bucket allocations reintroduce the allocator churn the "
        "kernel layer removes"
    )
    default_scopes = (
        "src/repro/kernels",
        "src/repro/gnn/aggregators.py",
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.relpath.replace("\\", "/").endswith(_EXEMPT_SUFFIXES):
            return []
        # A call inside a nested function (a backward closure, a task)
        # is walked from every enclosing function; collect it once.
        calls = {
            node
            for func in ast.walk(ctx.tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
        }
        findings: list[Finding] = []
        for node in sorted(calls, key=lambda n: (n.lineno, n.col_offset)):
            resolved = ctx.imports.resolve(node.func)
            if resolved not in _ALLOCATORS:
                continue
            short = resolved.replace("numpy.", "np.")
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"per-call {short}(...) on the kernel hot path; "
                    f"request the buffer from the Workspace arena, or "
                    f"mark an owned autograd allocation with "
                    f"'# repro: noqa[hot-alloc] <reason>'",
                )
            )
        return findings
