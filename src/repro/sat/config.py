"""Solver configuration: the diversification surface of the CDCL core.

A :class:`SolverConfig` bundles the search-strategy knobs that make two
solvers take *different trajectories through the same search space* while
deciding the same formula:

* ``seed`` / ``random_decision_freq`` / ``random_polarity_freq`` — a
  deterministic RNG that occasionally overrides the VSIDS pick or the
  saved-phase polarity.  Noise is the classic portfolio diversifier: on
  instances where trajectory luck dominates (phase-transition 3-SAT), two
  seeds can differ by orders of magnitude in conflicts.
* ``phase_init`` — the polarity a variable gets before phase saving has
  anything to save: ``"false"`` (MiniSat's default, and this solver's
  historical behavior), ``"true"``, or ``"random"`` (seeded).
* ``restart`` — the restart series: ``"luby"`` (the universally optimal
  Luby–Sinclair–Zuckerman schedule) or ``"geometric"``
  (``restart_base * restart_factor^i``, aggressive early / patient late).
* ``var_decay`` — the VSIDS decay factor; lower values chase recent
  conflicts harder, higher values keep long-term structure.

``SolverConfig()`` *is* the solver's historical behavior bit for bit: no
RNG is even constructed, so a default-config solver stays deterministic
and byte-identical to the pre-config core.  :meth:`SolverConfig.portfolio`
builds the diversified lineup the portfolio runner races — worker 0 always
runs the default config, so the portfolio's answer set always contains the
sequential engine's trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Valid ``phase_init`` values.
PHASE_CHOICES = ("false", "true", "random")
#: Valid ``restart`` series names.
RESTART_CHOICES = ("luby", "geometric")


@dataclass(frozen=True)
class SolverConfig:
    """Immutable search-strategy knobs for one :class:`~repro.sat.Solver`.

    The default instance reproduces the historical solver exactly; every
    field is validated at construction so a typo'd config fails loudly
    instead of silently racing a default worker."""

    #: Display name, used for portfolio win attribution and metrics.
    name: str = "default"
    #: RNG seed for the noise knobs; ``None`` with zero frequencies means
    #: no RNG is constructed at all (the fully deterministic default).
    seed: Optional[int] = None
    #: Initial decision polarity before phase saving kicks in.
    phase_init: str = "false"
    #: Restart series: ``"luby"`` or ``"geometric"``.
    restart: str = "luby"
    #: Conflicts per restart unit (scales either series).
    restart_base: int = 64
    #: Growth factor of the geometric series (ignored for luby).
    restart_factor: float = 1.5
    #: VSIDS decay factor in (0, 1); activities are bumped by a growing
    #: increment that multiplies by ``1/var_decay`` per conflict.
    var_decay: float = 0.95
    #: Probability that a decision picks a uniformly random unassigned
    #: variable instead of the VSIDS maximum.
    random_decision_freq: float = 0.0
    #: Probability that a decision's polarity is drawn from the RNG
    #: instead of the saved phase.
    random_polarity_freq: float = 0.0

    def __post_init__(self) -> None:
        if self.phase_init not in PHASE_CHOICES:
            raise ValueError(
                f"phase_init must be one of {PHASE_CHOICES}, got {self.phase_init!r}"
            )
        if self.restart not in RESTART_CHOICES:
            raise ValueError(
                f"restart must be one of {RESTART_CHOICES}, got {self.restart!r}"
            )
        if self.restart_base < 1:
            raise ValueError("restart_base must be positive")
        if self.restart_factor <= 1.0:
            raise ValueError("restart_factor must exceed 1")
        if not 0.0 < self.var_decay < 1.0:
            raise ValueError("var_decay must lie strictly between 0 and 1")
        for freq_name in ("random_decision_freq", "random_polarity_freq"):
            freq = getattr(self, freq_name)
            if not 0.0 <= freq <= 1.0:
                raise ValueError(f"{freq_name} must lie in [0, 1]")
        if self.needs_rng and self.seed is None:
            raise ValueError(
                "randomized knobs (phase_init='random', random_*_freq > 0) "
                "require an explicit seed — portfolio runs must be replayable"
            )

    @property
    def needs_rng(self) -> bool:
        """True when any knob draws random numbers."""
        return (
            self.phase_init == "random"
            or self.random_decision_freq > 0.0
            or self.random_polarity_freq > 0.0
        )

    @property
    def is_default(self) -> bool:
        """True when the config reproduces the historical solver."""
        return self == SolverConfig(name=self.name)

    @classmethod
    def portfolio(cls, count: int) -> tuple["SolverConfig", ...]:
        """The diversified lineup for a ``count``-worker portfolio.

        Worker 0 is always the default config (so racing can never lose a
        verdict the sequential engine would have found); the next few
        slots are hand-picked classic diversifiers (opposite phase,
        geometric restarts, decision noise, slow decay); further slots
        cycle seeded noise variants.  Deterministic: the same ``count``
        always yields the same tuple."""
        if count < 1:
            raise ValueError("a portfolio needs at least one worker")
        lineup = [
            cls(),
            cls(
                name="phase-true/geometric",
                phase_init="true",
                restart="geometric",
                restart_base=100,
            ),
            cls(
                name="noisy/seed1",
                seed=1,
                phase_init="random",
                random_decision_freq=0.05,
                random_polarity_freq=0.02,
            ),
            cls(name="slow-decay/luby256", var_decay=0.99, restart_base=256),
        ]
        seed = 2
        while len(lineup) < count:
            lineup.append(
                cls(
                    name=f"noisy/seed{seed}",
                    seed=seed,
                    phase_init="random",
                    random_decision_freq=0.02 * (1 + seed % 3),
                    random_polarity_freq=0.05,
                    restart="geometric" if seed % 2 else "luby",
                    restart_base=64 + 32 * (seed % 4),
                )
            )
            seed += 1
        return tuple(lineup[:count])


#: Module-level default, shared so hot paths can test identity.
DEFAULT_CONFIG = SolverConfig()

__all__ = ["SolverConfig", "DEFAULT_CONFIG", "PHASE_CHOICES", "RESTART_CHOICES"]
