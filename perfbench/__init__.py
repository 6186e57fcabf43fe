"""perfbench: the repository's end-to-end and per-layer benchmark.

``python -m perfbench run --seed N`` runs every workload, each in a fresh
child process (``perfbench/run.py``); ``python -m perfbench compare``
judges a change against its parent.  See ``perfbench/README.md``.
"""
