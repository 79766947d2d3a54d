"""Reference twins kept only as test oracles for the vectorised fast paths."""
