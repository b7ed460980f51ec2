"""Text persistence: the package's one text writer and record codec.

Every `key = value` file (instance, solve result, run manifest) is a
record: a flat header of `key = value` lines followed by labelled
`[name]` blocks of rows, read by `read_record` and written by
`write_record`.  Vectors serialize as two-column CSV rows (re, im), one
row per entry, using shortest round-trip float representations so a
load reproduces the stored values bit for bit.  An instance file is its
recipe and its y: the family, n, m and model seed, which each builder
turns into one model, reproducibly, and the draw's s, k, setting, noise
amplitude and seed, from which `gen_instance` redraws x, z, w and y.  The
stored y is the check that the recipe still draws what was written.
"""

from pathlib import Path

import numpy as np

from .errors import ArgumentError, DemixError, FormatError
from .models import build_family, gen_instance

# the instance header in file order: key -> parser
_INSTANCE_HEADER = {"family": str, "n": int, "m": int, "model_seed": int, "s": int, "k": int,
                    "setting": str, "noise_amp": float, "seed": int}


def _fmt(x):
    return repr(float(x))


def format_vector_lines(v):
    v = np.asarray(v, dtype=np.complex128)
    return [f"{_fmt(e.real)},{_fmt(e.imag)}" for e in v]


def parse_vector_lines(lines):
    out = np.empty(len(lines), dtype=np.complex128)
    for i, line in enumerate(lines):
        re_s, im_s = line.split(",")
        out[i] = complex(float(re_s), float(im_s))
    return out


def write_lines(path, lines):
    """Write text lines, each ending in a newline, creating missing parent
    directories.  A path that cannot be written raises FormatError."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise FormatError(f"cannot write '{path}': {exc}") from None


def write_record(path, header, blocks=(), title=None):
    """Write (key, value) header pairs, then each (name, rows) block."""
    lines = [] if title is None else [title]
    lines += [f"{key} = {value}" for key, value in header]
    for name, rows in blocks:
        lines.append(f"[{name}]")
        lines.extend(rows)
    write_lines(path, lines)


def read_record(path):
    """The header dict and the {name: rows} blocks of a record file.

    Blank lines and lines starting with '#' are skipped.  A file that
    cannot be read, a header line without '=', or a key or block name
    given twice raises FormatError.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read '{path}': {exc}") from None
    header, blocks, rows = {}, {}, None
    for number, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            into, key, value = blocks, line[1:-1], []
            rows = value
        elif rows is not None:
            rows.append(line)
            continue
        elif "=" in line:
            key, _, value = line.partition("=")
            into, key, value = header, key.strip(), value.strip()
        else:
            raise FormatError(f"'{path}' line {number}: expected 'key = value', got '{line}'")
        if key in into:
            raise FormatError(f"'{path}' line {number}: '{key}' given twice")
        into[key] = value
    return header, blocks


def save_instance(path, inst):
    """Persist an instance as its recipe header and its y."""
    model = inst.model
    if model.family == "custom":
        raise ArgumentError("custom models carry no rebuild recipe; cannot persist")
    values = dict(family=model.family, n=model.n, m=model.m, model_seed=model.seed,
                  s=inst.s, k=inst.k, setting=inst.setting,
                  noise_amp=_fmt(inst.noise_amp), seed=inst.seed)
    header = [(key, values[key]) for key in _INSTANCE_HEADER]
    write_record(path, header, [("y", format_vector_lines(inst.y))], title="# demixcs instance v2")


def load_instance(path):
    """Redraw a persisted instance from its recipe with `gen_instance`.

    A file that `read_record` refuses, or one that lacks an entry, holds
    one that does not parse, or holds a header entry or block this reader
    does not read, raises FormatError.  So does a `[y]` block whose length
    is not m, a header that names a model that cannot be built or a draw
    that `gen_instance` refuses, and a stored y that differs from the
    redrawn y by more than 1e-12 max(||y||, 1), a non-finite row included.
    """
    header, blocks = read_record(path)
    unknown = ([f"entry '{key}'" for key in header if key not in _INSTANCE_HEADER]
               + [f"block '[{name}]'" for name in blocks if name != "y"])
    if unknown:
        raise FormatError(f"instance file '{path}' holds unknown {unknown[0]}")
    try:
        meta = {key: parse(header[key]) for key, parse in _INSTANCE_HEADER.items()}
        y = parse_vector_lines(blocks["y"])
    except KeyError as exc:
        raise FormatError(f"instance file '{path}' lacks entry {exc}") from None
    except ValueError as exc:
        raise FormatError(f"instance file '{path}' is malformed: {exc}") from None
    family, n, m, model_seed = (meta.pop(key) for key in ("family", "n", "m", "model_seed"))
    if y.size != m:
        raise FormatError(f"instance file '{path}' block '[y]' holds {y.size} rows, expected {m}")
    try:
        inst = gen_instance(build_family(family, n, m, model_seed), **meta)
    except DemixError as exc:
        raise FormatError(f"instance file '{path}': {exc}") from None
    drift = np.linalg.norm(inst.y - y)
    if not drift <= 1e-12 * max(np.linalg.norm(y), 1.0):
        raise FormatError(f"instance file '{path}' inconsistent: |y - redrawn y| = {drift:g}")
    return inst


def save_result(path, result):
    """Solve-result record: status lines plus CSV blocks for the estimates."""
    header = [("status", result.status), ("iterations", result.iterations),
              ("residual", _fmt(result.residual)), ("objective", _fmt(result.objective))]
    write_record(path, header, [(name, format_vector_lines(getattr(result, name)))
                                for name in ("x_hat", "z_hat")], title="# demixcs result v1")
