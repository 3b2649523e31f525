"""Itinerary stratification toolkit for locally convex curves in Spin_{n+1}.

Modules
-------
symgrp    symmetric-group combinatorics (reduced words, Bruhat order, mult)
spinalg   even Clifford algebra / spin arithmetic (acute, grave, hat, q_of_word)
triang    unit lower-triangular total positivity and accessibility
curvelab  numeric curve engine (integration, itineraries, u-invariant)
polysect  exact symbolic transversal sections and stratum maps
poset     the itinerary-word poset and Hasse diagrams
cli       command-line front end
"""

__version__ = "0.1.0"
