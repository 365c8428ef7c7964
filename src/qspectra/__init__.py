"""qspectra: deformed spectral calculus.

A small numerical library around one finite-difference idea: replace the
logarithm in spectral aggregates (determinants, factorials, entropies)
by the q-logarithm ln_q x = (x^(1-q) - 1)/(1-q). The package covers the
scalar q-algebra, deformed factorials/multinomials and their large-n
asymptotics, finite spectra and their effective action, zeta-function
continuation for infinite model spectra, the induced geometry on the
probability simplex, and a self-verification battery exposed through the
``qspectra`` command-line tool.

Importing the package loads none of its modules. Each exported name is
imported from its module on first access and kept here after that.
"""

__version__ = "0.1.0"

# Searched in this order for a name; the modules that load without numpy
# come first, so e.g. bernoulli_numbers loads no numpy.
_MODULES = ("errors", "qalgebra", "zeta", "combinatorics", "spectrum", "geometry", "verify")


def __getattr__(name: str):
    if name in _MODULES:
        # the interpreter's own import, which -X importtime reports (it does
        # not report importlib.import_module); it binds the module here
        __import__(f"{__name__}.{name}")
        return globals()[name]
    modules = (__getattr__(m) for m in _MODULES)
    if name == "__all__":
        value = [n for module in modules for n in module.__all__] + ["__version__"]
    else:
        module = next((m for m in modules if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value
