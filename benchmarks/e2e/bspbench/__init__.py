"""End-to-end benchmark of the BSP runtime, measured from outside ``src/``.

Everything here times calls into the library's public functions; nothing
in ``src/`` is instrumented.  ``run.py`` (or ``python -m benchmarks.e2e``)
is the command; see ``README.md`` beside it.
"""
