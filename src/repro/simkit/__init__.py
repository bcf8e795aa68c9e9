"""Discrete-event simulation kernel used by every emulated system.

The kernel is deliberately small: a binary-heap event loop
(:class:`~repro.simkit.engine.SimulationEngine`), cancellable events
(:class:`~repro.simkit.events.Event`), periodic timers
(:class:`~repro.simkit.timers.PeriodicTimer`) and seeded random-stream
management (:class:`~repro.simkit.rng.RandomStreams`).  All simulated
components (schedulers, TRE servers, the resource provision service, job
emulators) are plain objects that schedule callbacks on the shared engine,
which keeps runs deterministic and easy to test.
"""

from repro.simkit.engine import SimulationEngine
from repro.simkit.events import Event, EventCancelled
from repro.simkit.rng import RandomStreams
from repro.simkit.timers import PeriodicTimer

__all__ = [
    "Event",
    "EventCancelled",
    "PeriodicTimer",
    "RandomStreams",
    "SimulationEngine",
]
