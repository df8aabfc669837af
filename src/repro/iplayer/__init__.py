"""The IP layer: Ethernet virtual circuits below 1 Gbps.

Fig. 2's service categorization sends guaranteed-bandwidth connections
below 1 Gbps over the IP layer as EVCs — packet services with committed
rates riding router adjacencies, which in turn ride the transport
layers.  The model captures what matters to GRIPhoN: per-adjacency
bandwidth accounting with statistical oversubscription, widest-shortest
routing, and fast IGP-style rerouting when an underlying fiber cut takes
an adjacency down.

* :mod:`repro.iplayer.evc` — EVC records and state machine;
* :mod:`repro.iplayer.network` — routers, adjacencies, routing, reroute.
"""
