"""Extended coherent states for a particle-oscillator system on a truncated
Hilbert space.  Import the modules: ``hilbert``, ``ecs`` (state algebra),
``dynamics`` (split propagation), ``observables`` (density matrices),
``oracle`` (dense reference), ``config`` and ``cli`` (a reproducible CLI)."""

__version__ = "0.1.0"
