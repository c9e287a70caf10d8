"""Law ids and default sizes that the command line shows in its help text.

This module imports nothing, so ``supertropical --help`` can show them
without loading the modules that use them: ``spectral`` for the laws,
``matrix`` for the dimension bound and ``fuzz.Config`` for the campaign
shape.
"""

# The one list of the matrix-power laws' check ids, in the paper's order, which
# is that of ``spectral.CHECKS``, of a campaign's runs and of ``check --help``.
LAW_IDS = ("thm13", "thm36", "cor37", "cor38", "trace")

# The largest matrix dimension det and char_poly accept unless given ``bound=``.
DEFAULT_DET_BOUND = 9

# The campaign shape's defaults that a command-line flag overrides.
DEFAULT_TRIALS = 100
DEFAULT_SEED = 0
DEFAULT_MIN_N = 2
DEFAULT_MAX_N = 4
DEFAULT_MAX_M = 3
DEFAULT_GHOST_PROB = 0.2
