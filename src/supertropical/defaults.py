"""Law ids and default sizes that the command line shows in its help text.

This module imports nothing, so ``supertropical --help`` can show them
without loading the modules that use them: ``spectral`` for the laws,
``matrix`` for the dimension bound and ``fuzz.Config`` for the campaign
shape.
"""

# The check ids of the matrix-power laws, in the order ``spectral.CHECKS``
# runs them and ``check --help`` lists them.
LAW_IDS = ("thm36", "thm13", "cor37", "cor38", "trace")

# The largest matrix dimension det and char_poly accept unless given ``bound=``.
DEFAULT_DET_BOUND = 9

# The campaign shape's defaults that a command-line flag overrides.
DEFAULT_TRIALS = 100
DEFAULT_SEED = 0
DEFAULT_MIN_N = 2
DEFAULT_MAX_N = 4
DEFAULT_MAX_M = 3
DEFAULT_GHOST_PROB = 0.2
