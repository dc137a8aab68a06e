"""Package metadata and legacy-path installs.

The offline environment lacks the ``wheel`` package, so PEP-660 editable
installs (``pip install -e .``) cannot build an editable wheel.  This
setup.py enables the legacy path::

    pip install -e . --no-build-isolation --no-use-pep517

and carries the full metadata (there is no pyproject.toml).  A simulation
run needs ``numpy`` alone: ``scipy`` is loaded only when a confidence
interval is computed (``repro.analysis.confidence``) or a Che ``fsolve``
fallback runs (``repro.analysis.cachemodel``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-speculative-prefetching",
    version="0.6.0",
    description=(
        "Reproduction of 'Effect of Speculative Prefetching on Network "
        "Load in Distributed Systems' (Tuah, Kumar, Venkatesh; IPDPS 2001)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=[
        "numpy>=1.24",
        "scipy>=1.10",
    ],
    extras_require={
        "dev": ["pytest>=7", "pytest-cov>=4", "hypothesis"],
    },
)
