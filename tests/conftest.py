"""Import stgormer before any test module imports numpy.

The package pins BLAS to one thread, but only if it loads before numpy
does; every test module imports numpy first, so without this the suite
would run with the BLAS library's default thread count.
"""
import stgormer  # noqa: F401
