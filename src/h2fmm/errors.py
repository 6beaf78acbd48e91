"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """An unsupported option or inconsistent configuration was requested."""


class PrecisionLimitError(ValueError):
    """A refinement past level 21 was requested.

    Keys store 3 bits per level in a single 64-bit word, so 21 levels
    (63 bits) is the deepest representable octree; 22 levels would need
    66 bits and overflow the word.
    """


class PartitionError(ValueError):
    """A process partition cannot be formed (e.g. more processes than leaves)."""


class ContainerError(ValueError):
    """An H2 container file is unreadable, truncated, padded or inconsistent."""
