"""Federated data substrate: synthetic datasets, partitioners and loaders.

The paper evaluates on CIFAR-10, CIFAR-100, FEMNIST and Widar.  This
environment has no network access, so the package provides *synthetic*
generators with matched tensor shapes, class counts and federated
structure (Dirichlet non-IID for CIFAR, natural per-writer non-IID for
FEMNIST, per-user non-IID for Widar).  See DESIGN.md §2 for the
substitution rationale.

Import from the submodules; the package itself exports nothing.
"""
