"""The name of the one kernel tier, for callers that stamp it on results."""


def resolve_backend(_requested=None) -> str:
    """Return ``"vectorized"``, whatever is asked for."""
    return "vectorized"
