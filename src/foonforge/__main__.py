"""``python -m foonforge``: the command-line entry point (see :mod:`foonforge.cli`)."""

from .cli import main

raise SystemExit(main())
