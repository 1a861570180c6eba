"""Set-up probe, timed from outside by run.py in a fresh interpreter.

Does what a sweep does before its first seed: imports ratesched and parses
and validates one experiment config file (argument 1).
"""

import sys

from ratesched.experiment import ExperimentConfig

ExperimentConfig.from_json_file(sys.argv[1]).sweep()
