#!/usr/bin/env python3
"""Reachability census: nothing ships that nothing runs.

Every `pub fn|struct|enum|trait|const|type` declared in the non-test part of a
file under crates/*/src (the lines before its first `#[cfg(test)]`) must be
named somewhere else: in another file, or again in the non-test part of its
own. A file whose top-level `pub` items are all unnamed elsewhere is reported
as a caller-less module. `use` statements are not callers (a re-export keeps
nothing alive) and neither is anything after `//` on a line: prose and doc
examples mention a name without running it.

A `pub fn` must also have a call or path site — `name(`, `.name(`, `name::<`
or `::name` — other than a `fn name` declaration and outside its own file's
test module: a field or a plain word of the same name does not keep it
alive. A top-level `pub fn` needs a site that is not a method call: `.name(`
keeps only methods alive, so a free function cannot live off a method that
shares its name. Both rules match by name, so a finding is checked by hand.

Hasher policy: a `HashMap` or `HashSet` anywhere under crates/ whose type
names a hasher (a third `HashMap` or second `HashSet` type argument), and any
`with_hasher` / `with_capacity_and_hasher` call, must be on HASHERS. A fixed
hasher is safe only for keys no client chooses: the registry's client table
is filled by registration alone, while ids arrive from clients and keep
SipHash.

Infallible engines: the non-test part of the dense and sparse engines
(INFALLIBLE) must not name `CoreError` outside comments. Admission refuses
every input an engine could fail on, so an error path that comes back into
an engine goes through review here. Run from the repository root; exits 1
with the findings.
"""
import glob, re, sys
from collections import Counter

# name -> the reason it may stay without a textual caller.
ALLOW = {}

DECL = re.compile(r"^( *)pub (?:const |unsafe )*(?:fn|struct|enum|trait|const|type) (\w+)", re.M)
USE = re.compile(r"\b(?:pub )?use [^;]*;")
COMMENT = re.compile(r"//.*")
CALLERS = ("crates/*/src/**/*.rs", "crates/*/tests/*.rs", "crates/*/benches/*.rs",
           "src/**/*.rs", "tests/*.rs", "examples/*.rs", "perfbench/src/**/*.rs")

FN_DECL = re.compile(r"^( *)pub (?:const |unsafe )*fn (\w+)", re.M)
SITE = re.compile(r"\b(\w+)\s*(?:\(|::<)|::(\w+)\b")
FREE_SITE = re.compile(r"(?<!\.)\b(\w+)\s*(?:\(|::<)|::(\w+)\b")  # SITE minus `.name(`
code = lambda text: USE.sub("", COMMENT.sub("", text))
words = lambda text: Counter(re.findall(r"\w+", code(text)))
sites = lambda text, site=SITE: Counter(
    a or b for a, b in site.findall(re.sub(r"\bfn\s+\w+", "fn", code(text))))
texts = {p: open(p).read() for pat in CALLERS for p in glob.glob(pat, recursive=True)}
named_in = {p: words(t) for p, t in texts.items()}
called_in = {p: sites(t) for p, t in texts.items()}
free_in = {p: sites(t, FREE_SITE) for p, t in texts.items()}
dead = []
for path in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)):
    shipped = texts[path].split("#[cfg(test)]")[0]
    own, own_sites, own_free = words(shipped), sites(shipped), sites(shipped, FREE_SITE)
    elsewhere = lambda name: any(name in w for p, w in named_in.items() if p != path)
    called = lambda name, top: (own_free if top else own_sites)[name] or any(
        name in c for p, c in (free_in if top else called_in).items() if p != path)
    decls = DECL.findall(shipped)
    top = [name for indent, name in decls if not indent]
    if top and not any(map(elsewhere, top)):
        dead.append(f"{path}: caller-less module ({', '.join(top)})")
        continue
    unnamed = [name for _, name in decls
               if own[name] <= 1 and not elsewhere(name) and name not in ALLOW]
    dead += [f"{path}: {name}" for name in unnamed]
    dead += [f"{path}: {name} (no call or path site)" for indent, name in FN_DECL.findall(shipped)
             if name not in unnamed and name not in ALLOW and not called(name, not indent)]

# (path, the field or binding the map is declared as) -> why a fixed hasher is safe.
HASHERS = {("crates/core/src/registry.rs", "slots"):
           "DistributionRegistry::slots: only registration inserts, so no submitter picks its keys"}

TYPED = re.compile(r"(\w+)?\s*:?\s*\b(HashMap|HashSet)\s*(?:::)?\s*<")
BUILT = re.compile(r"(?:(\w+)\s*(?::[^=]*)?=\s*)?\b(?:HashMap|HashSet)::(?:with_hasher|with_capacity_and_hasher)\b")

def type_args(text, start):
    """The top-level type arguments of the generic list opening at text[start - 1]."""
    depth, args = 1, [""]
    for i in range(start, len(text)):
        c = text[i]
        if c in "<([":
            depth += 1
        elif c in ">)]" and text[i - 1] != "-":  # `->` closes nothing
            depth -= 1
        if depth == 0:
            break
        if c == "," and depth == 1:
            args.append("")
        else:
            args[-1] += c
    return [a for a in args if a.strip()]

hashers = []
for path in sorted(glob.glob("crates/**/*.rs", recursive=True)):
    text = COMMENT.sub("", open(path).read())
    for m in TYPED.finditer(text):
        keys_and_values = 2 if m.group(2) == "HashMap" else 1
        args = type_args(text, m.end())
        if len(args) > keys_and_values and (path, m.group(1)) not in HASHERS:
            line = text.count("\n", 0, m.start()) + 1
            hashers.append(f"{path}:{line}: {m.group(2)} with a non-default hasher ({m.group(1) or 'unnamed'})")
    for m in BUILT.finditer(text):
        if (path, m.group(1)) not in HASHERS:
            line = text.count("\n", 0, m.start()) + 1
            hashers.append(f"{path}:{line}: map built with a hasher ({m.group(1) or 'unnamed'})")
INFALLIBLE = ("crates/core/src/sequencer/dense.rs", "crates/core/src/sequencer/sparse.rs")
fallible = [f"{path}: names CoreError" for path in INFALLIBLE
            if re.search(r"\bCoreError\b", COMMENT.sub("", texts[path].split("#[cfg(test)]")[0]))]
print("\n".join(dead) or "reachability census: every pub item has a caller")
print("\n".join(hashers) or "hasher policy: only the allowlisted map has a fixed hasher")
print("\n".join(fallible) or "infallible engines: neither engine names CoreError")
sys.exit(1 if dead or hashers or fallible else 0)
