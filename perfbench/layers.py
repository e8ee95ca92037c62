"""Per-layer self time and exact call counts from a gprof profile.

A layer is a directory under src/. Each function in gprof's flat profile
is charged to the directory of the source file that defines it, as `nm -l`
reports it. Functions defined outside src/ (std::function trampolines,
container templates) are charged to the layer of the first ccas name in
their signature, so a lambda's trampoline counts with the code that
defined it; the rest stay unattributed.
"""

import collections
import os
import re
import subprocess

FLAT_LINE = re.compile(
    r"^\s*[\d.]+\s+[\d.]+\s+(?P<self>[\d.]+)\s+"
    r"(?:(?P<calls>\d+)\s+[\d.]+\s+[\d.]+\s+)?(?P<name>\S.*)$")
CCAS_NAME = re.compile(r"ccas::(\w+)")


def parse_flat_profile(text):
    """gprof -b -p output -> [(name, self_seconds, calls or None)]."""
    rows = []
    for line in text.splitlines():
        m = FLAT_LINE.match(line)
        if m is None:
            continue
        calls = m.group("calls")
        rows.append((m.group("name").strip(), float(m.group("self")),
                     int(calls) if calls is not None else None))
    return rows


def file_layer(path, root):
    """Layer of a source file: its first directory under <root>/src."""
    src = os.path.join(root, "src") + os.sep
    path = os.path.normpath(path)
    if not path.startswith(src):
        return None
    parts = path[len(src):].split(os.sep)
    return parts[0] if len(parts) > 1 else None


def symbol_files(binary):
    """Demangled symbol name -> defining source file, from nm -l."""
    out = subprocess.run(["nm", "-C", "-l", "--defined-only", binary],
                         check=True, capture_output=True, text=True).stdout
    files = {}
    for line in out.splitlines():
        head, sep, where = line.partition("\t")
        if not sep:
            continue
        fields = head.split(" ", 2)
        if len(fields) == 3:
            files[fields[2]] = where.rsplit(":", 1)[0]
    return files


class LayerMap:
    def __init__(self, files, root):
        self.layer_of = {}
        by_name = collections.defaultdict(collections.Counter)
        for name, path in files.items():
            layer = file_layer(path, root)
            if layer is None:
                continue
            self.layer_of[name] = layer
            m = CCAS_NAME.search(name)
            if m:
                by_name[m.group(1)][layer] += 1
        self.name_layer = {k: c.most_common(1)[0][0] for k, c in by_name.items()}

    def layer(self, name):
        if name in self.layer_of:
            return self.layer_of[name]
        m = CCAS_NAME.search(name)
        if m:
            return self.name_layer.get(m.group(1))
        return None


def profile_layers(binary, gmon, root):
    """Self seconds per layer, call counts per function and the rows."""
    text = subprocess.run(["gprof", "-b", "-p", binary, gmon], check=True,
                          capture_output=True, text=True).stdout
    rows = parse_flat_profile(text)
    layers = LayerMap(symbol_files(binary), root)
    self_s = collections.defaultdict(float)
    calls = {}
    for name, seconds, count in rows:
        self_s[layers.layer(name) or "unattributed"] += seconds
        if count is not None:
            calls[name] = calls.get(name, 0) + count
    return dict(self_s), calls, rows


def calls_of(calls, prefix):
    """Calls of every function whose name starts with `prefix` (clones too)."""
    return sum(n for name, n in calls.items() if name.startswith(prefix))
