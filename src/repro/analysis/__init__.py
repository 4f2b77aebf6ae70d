"""repro.analysis — *reprolint*, the determinism & invariant linter.

A plugin-based static-analysis framework purpose-built for this
repository's invariants: the rules encode guarantees the runtime parity
suites can only spot-check — sanctioned randomness (RPL001), dtype
discipline (RPL002), pickle-safe executor tasks (RPL003), strict
serialization pairing (RPL004), shared-state hygiene (RPL005), atomic
store writes (RPL006), registry hygiene (RPL007) and callback ordering
(RPL008).

Rules register via the same decorator idiom as algorithms and
scenarios (:func:`~repro.analysis.registry.register_rule`);
:func:`~repro.analysis.engine.lint_paths` drives a run; ``repro lint`` is
the CLI face.  See ``docs/guides/lint.md``.

Import from the submodules; the package itself exports nothing.
"""
