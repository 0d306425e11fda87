"""Reference implementations kept as test oracles, not as live code paths."""
