"""``python -m dpcolor``: the command line, as the ``dpcolor`` script runs it."""

import sys

from .cli import main

sys.exit(main())
