"""Run the command-line interface as ``python -m circpart``."""

from .cli import main

raise SystemExit(main())
