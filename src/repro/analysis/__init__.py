"""Analysis of the reproduction's own code: the simlint static
analyser (:mod:`repro.analysis.simlint`)."""
