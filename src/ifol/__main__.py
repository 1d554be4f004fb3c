"""`python -m ifol`: the `ifol` command line."""

import sys

from .cli import main

sys.exit(main())
