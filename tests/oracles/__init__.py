"""Reference oracles the differential tests and benchmarks compare against.

* :mod:`.dense_statevector` — the seed statevector: dense tensordot
  contraction per gate, with ``np.arange`` MCX/MCZ paths;
* :mod:`.tableau_reference` — the dense per-gate-loop CHP tableau.

Both are the historical implementations, kept verbatim so the fast
paths in ``repro.simulator`` stay pinned to them.  Nothing in
``src/`` imports them.
"""
