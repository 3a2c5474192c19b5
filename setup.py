"""Setup script.

Metadata lives here (not in a ``[project]`` table) on purpose: the offline
environment has no ``wheel`` package, so PEP 517/660 editable installs fail
with "invalid command 'bdist_wheel'".  With a plain ``setup.py`` and no
``[build-system]``/``[project]`` tables, ``pip install -e .`` takes the
legacy ``setup.py develop`` path, which works offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.2.0",
    description=(
        "Reproduction of 'Leveraging Graph Dimensions in Online Graph "
        "Search' (PVLDB 8(1), 2014): DS-preserved mapping, DSPM/DSPMap, "
        "gSpan, VF2, MCS, and seven feature-selection baselines."
    ),
    long_description=open("README.md").read(),
    long_description_content_type="text/markdown",
    python_requires=">=3.10",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # numpy 2.0 brings np.bitwise_count, the served scan's popcount.
    install_requires=["numpy>=2.0", "scipy>=1.7"],
    extras_require={
        "test": [
            "pytest",
            "pytest-asyncio",
            "pytest-benchmark",
            "pytest-timeout",
            "hypothesis",
        ]
    },
    entry_points={"console_scripts": ["repro-graphdim=repro.cli:main"]},
)
