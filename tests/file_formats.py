"""The command line's files, written and parsed by the tests with numpy alone.

``write_signal_csv`` writes the ``np.savetxt`` signal CSV that the benchmark
feeds to ``compute``; ``read_spectrum_csv`` parses the spectrum CSV that
``compute`` writes, as perfbench/workloads.py::check_spectrum_csv does.
"""

import numpy as np

from alpha_spectra import DenseFactor, Spectrum


def write_signal_csv(path, samples, duration=1.0):
    """``samples`` as an ``index,re,im`` CSV under ``# T=`` and ``# N=`` comments."""
    x = np.asarray(samples, dtype=np.complex128)
    with open(path, "w") as fh:
        fh.write(f"# T={duration!r}\n# N={x.size}\nindex,re,im\n")
        np.savetxt(fh, np.column_stack((np.arange(x.size), x.real, x.imag)),
                   fmt=("%d", "%.17g", "%.17g"), delimiter=",")


def read_spectrum_csv(path):
    """(Spectrum, method) of a spectrum CSV that ``compute`` wrote."""
    metadata = {}
    with open(path) as fh:
        for skip, line in enumerate(fh, start=1):
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition("=")
            metadata[key.strip()] = value.strip()
    assert line.strip() == "m,freq,re,im,magnitude"
    rows = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    assert np.array_equal(rows[:, 0], np.arange(len(rows)))
    # The re and im columns side by side are the bins' bytes, -0.0 parts included.
    bins = np.ascontiguousarray(rows[:, 2:4]).view(np.complex128).ravel()
    spectrum = Spectrum(bins, int(metadata["N"]), DenseFactor.from_string(metadata["alpha"]),
                        float(metadata["T"]))
    return spectrum, metadata["method"]
