"""Mapping of superconducting-circuit device parameters onto the model.

Device side: charge qubits (each one a pair of symmetric SQUID loops)
biased at gate charge n_g, threaded by a local flux Phi_x and a global
flux Phi_e through a shared inductance L, and capacitively coupled to a
transmission-line cavity.  Model side: ModelParams in angular-frequency
units (hbar = 1).  Fluxes enter as the radian arguments of the trig
functions; a helper converts from webers when needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError, parse_number, read_sections
from .model import ModelParams

HBAR = 1.054571817e-34  # J s
FLUX_QUANTUM = 2.067833848e-15  # Wb
REGIME_TOL = 1e-9  # |epsilon| and |eta| below it count as zero, in angular-frequency units

_DEVICE_KEYS = ("E_c", "E_J", "n_g", "Phi_x", "Phi_e", "L", "I_c", "omega", "g", "N")
_FREQ_KEYS = ("E_c", "E_J", "omega", "g")


@dataclass(frozen=True)
class CircuitParams:
    """Device parameters; energies in angular-frequency units, L and I_c in SI."""

    E_c: float
    E_J: float
    n_g: float
    Phi_x: float  # radians
    Phi_e: float  # radians
    L: float  # henry
    I_c: float  # ampere
    omega: float
    g: float
    N: int

    def __post_init__(self):
        if self.L <= 0:
            raise ValidationError(f"L must be positive, got {self.L}")
        if self.I_c <= 0:
            raise ValidationError(f"I_c must be positive, got {self.I_c}")
        if self.omega <= 0:
            raise ValidationError(f"omega must be positive, got {self.omega}")
        if not 0 <= self.n_g <= 1:
            raise ValidationError(f"n_g must lie in [0, 1], got {self.n_g}")
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValidationError(f"N must be a positive integer, got {self.N!r}")


@dataclass(frozen=True)
class DerivedSingleAtom:
    """Single-atom bias epsilon, tunneling eta, and screening parameter kappa."""

    epsilon: float
    eta: float
    kappa: float


def flux_radians_from_weber(phi_weber: float) -> float:
    """Convert a flux in webers to the radian argument 2 pi Phi / Phi_0."""
    return 2.0 * math.pi * phi_weber / FLUX_QUANTUM


def derive_model_params(c: CircuitParams) -> tuple[ModelParams, DerivedSingleAtom]:
    """Map device parameters to (ModelParams, DerivedSingleAtom).

    kappa   = pi L I_c / Phi_0
    epsilon = 2 E_c (2 n_g - 1)
    eta     = -E_J cos(Phi_x) cos(Phi_e) (1 - 2 kappa^2 sin^2(Phi_e))
    v       = L I_c^2 sin^2(Phi_e) / (2 hbar)   [angular-frequency units]
    """
    kappa = math.pi * c.L * c.I_c / FLUX_QUANTUM
    epsilon = 2.0 * c.E_c * (2.0 * c.n_g - 1.0)
    eta = (
        -c.E_J
        * math.cos(c.Phi_x)
        * math.cos(c.Phi_e)
        * (1.0 - 2.0 * kappa**2 * math.sin(c.Phi_e) ** 2)
    )
    v = c.L * c.I_c**2 * math.sin(c.Phi_e) ** 2 / 2.0 / HBAR
    model = ModelParams(N=int(c.N), omega=c.omega, g=c.g, v=v)
    return model, DerivedSingleAtom(epsilon=epsilon, eta=eta, kappa=kappa)


@dataclass(frozen=True)
class RegimeReport:
    """Operating-point checks; never raises, only reports."""

    u_lt_v: bool
    optimal_point: bool
    eta_zero: bool
    messages: tuple[str, ...]


def validate_regime(m: ModelParams, d: DerivedSingleAtom) -> RegimeReport:
    """Check u < v, |epsilon| < ``REGIME_TOL`` (gate at 1/2), and |eta| < ``REGIME_TOL``."""
    msgs = []
    u_lt_v = m.u < m.v
    if not u_lt_v:
        msgs.append(f"two-well condition violated: u = {m.u:.6g} >= v = {m.v:.6g}")
    optimal = abs(d.epsilon) < REGIME_TOL
    if not optimal:
        msgs.append(
            f"optimal point violated: epsilon = {d.epsilon:.6g} (gate charge n_g != 1/2)"
        )
    eta_zero = abs(d.eta) < REGIME_TOL
    if not eta_zero:
        msgs.append(f"residual tunneling: eta = {d.eta:.6g} (cos(Phi_x) != 0)")
    return RegimeReport(
        u_lt_v=u_lt_v, optimal_point=optimal, eta_zero=eta_zero, messages=tuple(msgs)
    )


def parse_device_text(text: str) -> CircuitParams:
    """Parse a key = value device file, read by :func:`~dickelab.errors.read_sections`.

    Keys are exactly E_c, E_J, n_g, Phi_x, Phi_e, L, I_c, omega, g, N plus
    an optional ``units`` key: ``angular`` (default; frequency-like values
    in rad/s) or ``linear`` (in Hz, multiplied by 2 pi on read).  L and
    I_c are always SI; fluxes always radians.  A section header, an
    unknown key, and a value that is not a finite number (an integer for
    N) fail closed, with their line.
    """
    values = read_sections(text, {None: ("units", *_DEVICE_KEYS)})[None]
    units, units_line = values.pop("units", ("angular", None))
    if units not in ("angular", "linear"):
        raise ConfigError(f"units must be 'angular' or 'linear', got {units!r}", line=units_line)
    missing = [k for k in _DEVICE_KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing device keys: {', '.join(missing)}")
    scale = 2.0 * math.pi if units == "linear" else 1.0
    return CircuitParams(**{
        key: parse_number(
            val, key, line, int if key == "N" else float, scale if key in _FREQ_KEYS else 1.0
        )
        for key, (val, line) in values.items()
    })


def read_device_file(path: str | Path) -> CircuitParams:
    return parse_device_text(Path(path).read_text(encoding="utf-8"))
