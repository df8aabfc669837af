"""Today's transport layers: SONET rings, W-DCS, and Ethernet-over-VCAT.

These are the Fig. 1 "current services & network layers": the layers the
carrier offers BoD on *today* (SONET only, at rates well below a full
wavelength).  They serve two purposes in the reproduction: they make the
Fig. 1 stack executable, and they provide the "today's reality" column
of Table 1 — sub-second SONET protection versus the 4–12 hour manual
restoration of unprotected wavelengths.
"""
