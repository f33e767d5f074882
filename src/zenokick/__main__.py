"""``python -m zenokick``: the command line, as the ``zenokick`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
