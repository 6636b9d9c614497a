"""``python -m multitrace``: the command-line front end of ``multitrace.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
