"""Experiment harness: one entry point per paper figure/table.

Each experiment function builds the testbeds it needs, runs the paper's
methodology (§V-A2), and returns an :class:`ExperimentReport` carrying
the measured series, the paper's reference values, and band checks — the
same artifacts EXPERIMENTS.md records.

=================  =======================================================
Experiment         Entry point
=================  =======================================================
Fig 7              :func:`repro.experiments.figures.figure7_enclave_load_time`
Fig 8              :func:`repro.experiments.sweeps.figure8_threads_epc_sweep`
Fig 9 / Table II   :func:`repro.experiments.figures.figure9_functional_total_latency`
Fig 10 / Table II  :func:`repro.experiments.figures.figure10_response_time`
Table I            :func:`repro.experiments.tables.table1_enclave_io`
Table II           :func:`repro.experiments.tables.table2_overheads`
Table III          :func:`repro.experiments.tables.table3_sgx_stats`
Table V            :func:`repro.experiments.tables.table5_key_issues`
Session setup      :func:`repro.experiments.session_setup.session_setup_experiment`
OTA (Fig 11/T IV)  :func:`repro.experiments.figures.figure11_ota_feasibility`
=================  =======================================================
"""
