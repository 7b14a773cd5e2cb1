"""``python -m shiftdet``: the ``shiftdet`` command line (``cli.main``),
exiting with its code."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
