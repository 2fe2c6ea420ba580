"""Monte Carlo toolkit for decoupled forward-backward stochastic control systems
whose backward component has a quadratic generator.

The package imports none of its modules; import each by name (``from qsmp import config``).
"""

__version__ = "0.1.0"
