"""Built-in Buffalo lint rules.

Importing this package registers every rule with the framework
registry (each module's rule classes carry ``@register_rule``).
See ``docs/analysis.md`` for the catalogue with rationale.
"""

from repro.analysis.rules import (  # noqa: F401  (register on import)
    concurrency,
    determinism,
    dtypes,
    error_context,
    hotalloc,
    lockcheck,
    memmap,
    metric_names,
    spans,
    unique,
)
