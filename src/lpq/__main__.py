"""``python -m lpq``: the command-line front end without the console script."""

from .cli import main

raise SystemExit(main())
