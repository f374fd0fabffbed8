"""Physical hardware model.

Models the paper's testbed server (Dell PowerEdge R450, 2× Intel Xeon
Silver 4314 @ 2.40 GHz, 512 GB DDR4, 16 GB combined EPC) at the level of
detail the experiments need: CPU cycle accounting and the capacities
Table IV reports.
"""
