"""numpy for the package's modules, imported when first used.

A module takes numpy with ``from ._numpy import np``.  Until a module
first reads an attribute of ``np``, it is a stand-in, so importing
``bcsjj`` loads no numpy, and neither does a lone ``ness`` point, which
reads none.  That first read imports numpy and binds it as ``np`` in
every module of the package that holds the stand-in.  From then on each
``np.<name>`` is a plain global lookup, as with a module-level import,
so no call pays for an import statement.  Nothing at module level may
read an attribute of ``np``: it would load numpy on import.
"""

import sys


class _NumpyOnFirstUse:
    def __getattr__(self, name):
        import numpy

        prefix = __name__.rpartition(".")[0] + "."
        for module_name in list(sys.modules):
            module = sys.modules[module_name]
            if module_name.startswith(prefix) and vars(module).get("np") is self:
                module.np = numpy
        return getattr(numpy, name)


np = _NumpyOnFirstUse()
