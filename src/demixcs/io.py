"""Text persistence: the package's one text writer and record codec.

Every `key = value` file (instance, solve result, run manifest, CLI
config) is a record: a flat header of `key = value` lines followed by
labelled `[name]` blocks of rows, read by `read_record` and written by
`write_record`.  Vectors serialize as two-column CSV rows (re, im), one
row per entry, using shortest round-trip float representations so a
load reproduces the stored values bit for bit.  An instance's model is
rebuilt from its family, n, m and seed, which each builder turns into one
model, reproducibly.
"""

from pathlib import Path

import numpy as np

from .errors import ArgumentError, DemixError, FormatError
from .models import ProblemInstance, build_family, check_instance_spec

_SUBSEEDS = ("signal", "corruption", "noise")
_INSTANCE_KEYS = ("family", "n", "m", "model_seed", "s", "k", "setting", "noise_amp", "seed",
                  *(f"subseed_{key}" for key in _SUBSEEDS))
_INSTANCE_BLOCKS = ("x_true", "z_true", "w", "y")


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


def _vector_blocks(pairs):
    return [(name, format_vector_lines(vec)) for name, vec in pairs]


def save_instance(path, inst):
    """Persist an instance as header + CSV blocks for x, z, w, y."""
    model = inst.model
    if model.family == "custom":
        raise ArgumentError("custom models carry no rebuild recipe; cannot persist")
    header = [("family", model.family), ("n", model.n), ("m", model.m),
              ("model_seed", model.seed), ("s", inst.s), ("k", inst.k),
              ("setting", inst.setting), ("noise_amp", _fmt(inst.noise_amp)),
              ("seed", inst.seed)]
    header += [(f"subseed_{key}", inst.sub_seeds[key]) for key in _SUBSEEDS]
    write_record(path, header, _vector_blocks(
        (name, getattr(inst, name)) for name in _INSTANCE_BLOCKS), title="# demixcs instance v1")


def load_instance(path):
    """Rebuild a persisted instance; the stored y is reproduced bit-exactly.

    A file that `read_record` refuses, or one that lacks an entry, holds
    one that does not parse, or holds a header entry or block this reader
    does not read, raises FormatError.  So does a block whose length is
    not n (`x_true`) or m (the others) or that holds a non-finite entry,
    a header that `gen_instance` would refuse or that names a model that
    cannot be built, and a y that differs from A x + H z + w.
    """
    header, blocks = read_record(path)
    for key in header:
        if key not in _INSTANCE_KEYS:
            raise FormatError(f"instance file '{path}' holds unknown entry '{key}'")
    for name in blocks:
        if name not in _INSTANCE_BLOCKS:
            raise FormatError(f"instance file '{path}' holds unknown block '[{name}]'")
    try:
        family = header["family"]
        n = int(header["n"])
        m = int(header["m"])
        model_seed = int(header["model_seed"])
        vecs = {name: parse_vector_lines(blocks[name])
                for name in _INSTANCE_BLOCKS}
        meta = dict(
            s=int(header["s"]), k=int(header["k"]),
            setting=header["setting"], noise_amp=float(header["noise_amp"]),
            seed=int(header["seed"]),
            sub_seeds={key: int(header[f"subseed_{key}"]) for key in _SUBSEEDS})
    except KeyError as exc:
        raise FormatError(f"instance file '{path}' lacks entry {exc}") from None
    except ValueError as exc:
        raise FormatError(f"instance file '{path}' is malformed: {exc}") from None
    for name, vec in vecs.items():
        length = n if name == "x_true" else m
        if vec.size != length:
            raise FormatError(f"instance file '{path}' block '[{name}]' holds {vec.size} "
                              f"rows, expected {length}")
        if not np.all(np.isfinite(vec)):
            raise FormatError(f"instance file '{path}' block '[{name}]' holds a "
                              "non-finite entry")
    try:
        check_instance_spec(n, m, meta["s"], meta["k"], meta["setting"], meta["noise_amp"])
        model = build_family(family, n, m, model_seed)
    except DemixError as exc:
        raise FormatError(f"instance file '{path}': {exc}") from None
    inst = ProblemInstance(
        model=model,
        x_true=vecs["x_true"], z_true=vecs["z_true"],
        w=vecs["w"], y=vecs["y"], **meta)

    recomputed = model.A.apply(inst.x_true) + model.H.apply(inst.z_true) + inst.w
    drift = np.linalg.norm(recomputed - inst.y)
    if not drift <= 1e-12 * max(np.linalg.norm(inst.y), 1.0):
        raise FormatError(f"instance file '{path}' inconsistent: "
                          f"|y - (Ax+Hz+w)| = {drift:g}")
    return inst


def save_result(path, result):
    """Solve-result record: status lines plus CSV blocks for the estimates."""
    header = [("status", result.status), ("iterations", result.iterations),
              ("residual", _fmt(result.residual)), ("objective", _fmt(result.objective))]
    write_record(path, header, _vector_blocks(
        (("x_hat", result.x_hat), ("z_hat", result.z_hat))), title="# demixcs result v1")
