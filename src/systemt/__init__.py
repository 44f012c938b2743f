"""System T toolkit: dialogue trees, Church-encoded extraction, moduli of continuity."""
