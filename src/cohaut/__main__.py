"""`python -m cohaut ...` runs the command-line front end (see cli.py)."""

import sys

from .cli import main

sys.exit(main())
