"""Text persistence: problem instances and solve results.

Vectors serialize as two-column CSV rows (re, im), one row per entry,
using shortest round-trip float representations so a load reproduces
the stored values bit for bit.  Instances persist as a flat key = value
header plus labelled CSV blocks; the model is rebuilt from its family,
seed and builder parameters, which the builders guarantee to be
reproducible.
"""

import numpy as np

from .errors import ArgumentError, DemixError, FormatError
from .models import ProblemInstance, build_family, canonical_family, family_params


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


def _parse_param(text, default):
    """A builder parameter's stored value, typed as its default."""
    if isinstance(default, bool):
        if text not in ("true", "false"):
            raise ValueError(f"boolean parameter must be true or false, got '{text}'")
        return text == "true"
    return text if default is None else type(default)(text)


def save_instance(path, inst):
    """Persist an instance as header + CSV blocks for x, z, w, y."""
    if inst.model.family == "custom":
        raise DemixError("custom models carry no rebuild recipe; cannot persist")
    lines = ["# demixcs instance v1"]
    lines.append(f"family = {inst.model.family}")
    lines.append(f"n = {inst.model.n}")
    lines.append(f"m = {inst.model.m}")
    lines.append(f"model_seed = {inst.model.seed}")
    for key, val in sorted(inst.model.params.items()):
        sval = ("true" if val else "false") if isinstance(val, bool) else str(val)
        lines.append(f"param_{key} = {sval}")
    lines.append(f"s = {inst.s}")
    lines.append(f"k = {inst.k}")
    lines.append(f"setting = {inst.setting}")
    lines.append(f"noise_amp = {_fmt(inst.noise_amp)}")
    lines.append(f"seed = {inst.seed}")
    for key in ("signal", "corruption", "noise"):
        lines.append(f"subseed_{key} = {inst.sub_seeds[key]}")
    for name, vec in (("x_true", inst.x_true), ("z_true", inst.z_true),
                      ("w", inst.w), ("y", inst.y)):
        lines.append(f"[{name}]")
        lines.extend(format_vector_lines(vec))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_sections(path):
    """Header key = value pairs and the labelled blocks of an instance file."""
    header = {}
    blocks = {}
    current = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                blocks[current] = []
            elif current is None:
                key, _, val = line.partition("=")
                header[key.strip()] = val.strip()
            else:
                blocks[current].append(line)
    return header, blocks


def load_instance(path):
    """Rebuild a persisted instance; the stored y is reproduced bit-exactly.

    A file that cannot be read, lacks an entry, holds one that does not
    parse, or names a model parameter its family does not take raises
    FormatError.
    """
    try:
        header, blocks = _read_sections(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read instance file '{path}': {exc}") from None
    try:
        family = canonical_family(header["family"])
        n = int(header["n"])
        m = int(header["m"])
        model_seed = int(header["model_seed"])
        defaults = family_params(family)
        params = {key[len("param_"):]: val for key, val in header.items()
                  if key.startswith("param_")}
        # Bernoulli-sampled models record the realized row count as m but
        # must be rebuilt from the requested one
        m_arg = int(params.pop("m_requested", m))
        params = {name: _parse_param(val, defaults.get(name))
                  for name, val in params.items()}
        vecs = {name: parse_vector_lines(blocks[name])
                for name in ("x_true", "z_true", "w", "y")}
        meta = dict(
            s=int(header["s"]), k=int(header["k"]),
            setting=header["setting"], noise_amp=float(header["noise_amp"]),
            seed=int(header["seed"]),
            sub_seeds={key: int(header[f"subseed_{key}"])
                       for key in ("signal", "corruption", "noise")})
    except KeyError as exc:
        raise FormatError(f"instance file '{path}' lacks entry {exc}") from None
    except ValueError as exc:
        raise FormatError(f"instance file '{path}' is malformed: {exc}") from None

    try:
        model = build_family(family, n, m_arg, model_seed, **params)
    except ArgumentError as exc:
        raise FormatError(f"instance file '{path}': {exc}") from None
    if model.m != m:
        raise DemixError(f"rebuilt model has m={model.m}, file says {m}")

    inst = ProblemInstance(
        model=model,
        x_true=vecs["x_true"], z_true=vecs["z_true"],
        w=vecs["w"], y=vecs["y"], **meta)

    recomputed = model.A.apply(inst.x_true) + model.H.apply(inst.z_true) + inst.w
    drift = np.linalg.norm(recomputed - inst.y)
    if drift > 1e-12 * max(np.linalg.norm(inst.y), 1.0):
        raise DemixError(f"instance file inconsistent: |y - (Ax+Hz+w)| = {drift:g}")
    return inst


def save_result(path, result):
    """Solve-result record: status lines plus CSV blocks for the estimates."""
    lines = ["# demixcs result v1"]
    lines.append(f"status = {result.status}")
    lines.append(f"iterations = {result.iterations}")
    lines.append(f"residual = {_fmt(result.residual)}")
    lines.append(f"objective = {_fmt(result.objective)}")
    lines.append("[x_hat]")
    lines.extend(format_vector_lines(result.x_hat))
    lines.append("[z_hat]")
    lines.extend(format_vector_lines(result.z_hat))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
