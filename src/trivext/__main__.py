"""`python -m trivext ...` runs the command line interface (`trivext.cli`)."""

import sys

from .cli import main

sys.exit(main())
