"""Quantum-incoherent coherence measures and Werner-state assisted
coherence distillation: quantifiers, protocols, optimization sweeps, and
verification suites.

Import each name from the module that defines it, for example
`from cohdist.states import werner`."""

__version__ = "0.1.0"
