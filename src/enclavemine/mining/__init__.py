"""Mining algorithms: heuristics discovery, PNML export, declare conformance."""
