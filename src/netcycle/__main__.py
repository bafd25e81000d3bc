"""`python -m netcycle`: the same command line as the `netcycle` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
