"""Straight-line code for one problem size, compiled at first use.

The solver's hot loops run over a handful of controls, so in pure Python
their time goes to loop control, indexing and list building rather than
to the arithmetic.  Real-time NMPC meets its budget by generating code for
one problem size with the loops unrolled (Houska, Ferreau & Diehl,
Automatica 47, 2011); ``_core_py`` and ``optimize`` do the same for their
kernels, writing Python source for one size and compiling it here.
"""

import linecache


def compile_function(source, name, key, names):
    """The function ``name`` that ``source`` defines, compiled and run in a
    fresh namespace holding ``names``.

    ``names["__name__"]`` must be the owning module's name: it becomes the
    function's ``__module__``, and tracers that group frames by module
    (tests/work_counts.py) count the generated frames under that module.
    The code is compiled under a file name that names the function and its
    ``key``, and the source is registered with linecache under it, so a
    traceback through generated code shows the line that failed.
    """
    filename = f"<{names['__name__']}.{name} {key!r}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace = dict(names)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]
