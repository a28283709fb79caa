"""Game-based transmission power control for multi-hop wireless sensor
networks.  The package root exports no names: import the submodules."""

__version__ = "0.1.0"
