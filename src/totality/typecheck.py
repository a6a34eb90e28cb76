"""Type reconstruction and priority assignment.

Each definition group is checked against the declared signatures (or a
fresh signature is inferred when none is given), every constructor, record
and projection occurrence is annotated with its instantiated type, and the
reachable type instances of the group are then given parity priorities:
odd for data, even for codata, with an instance placed strictly above
everything it dominates.  Dominance has two sources: being a proper
syntactic subexpression, and being one deconstruction step away (the
argument type of a constructor, the result type of a destructor) from an
instance that it cannot deconstruct back to.
"""

from __future__ import annotations

from collections import Counter

from .records import Struct
from .surface import (
    Definition,
    SApp,
    SConstr,
    SNum,
    SProj,
    SRecord,
    SourceError,
    SVar,
    TApp,
    TArrow,
    TVar,
    TypeDecl,
    type_str,
    uncurry,
)


class TypeCheckError(SourceError):
    pass


class PriorityError(SourceError):
    pass


# ---------------------------------------------------------------------------
# annotated clause trees
#
# Patterns and bodies share one node set, as in the surface syntax.  Each
# node that carries a type gets its result type `instance` during annotation
# and its priority `prio` once the group's priorities are known.  Only
# bodies hold a projection `AProj` or a resolved call `ACall`.

class AVar(Struct):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class AConstr(Struct):
    __slots__ = ("name", "arg", "instance", "prio")

    def __init__(self, name: str, arg: object, instance: object = None,
                 prio: object = None):
        self.name = name
        self.arg = arg
        self.instance = instance
        self.prio = prio


class ANum(Struct):
    """The numeral `value`: that many `Succ` over `Zero arg`."""

    __slots__ = ("value", "arg", "instance", "prio")

    def __init__(self, value: int, arg: object, instance: object = None,
                 prio: object = None):
        self.value = value
        self.arg = arg
        self.instance = instance
        self.prio = prio


class ARecord(Struct):
    __slots__ = ("fields", "instance", "prio")

    def __init__(self, fields: tuple, instance: object = None,
                 prio: object = None):
        self.fields = fields
        self.instance = instance
        self.prio = prio


class AProj(Struct):
    __slots__ = ("sub", "name", "instance", "prio")

    def __init__(self, sub: object, name: str, instance: object = None,
                 prio: object = None):
        self.sub = sub
        self.name = name
        self.instance = instance
        self.prio = prio


class ACall(Struct):
    __slots__ = ("fname", "args")

    def __init__(self, fname: str, args: tuple):
        self.fname = fname
        self.args = args


_ONE_CHILD = (AConstr, ANum)


def clause_nodes(cl):
    """Pre-order walk over every node of the clause `cl`, patterns first
    and then the body."""
    stack = [cl.body, *reversed(cl.patterns)]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _ONE_CHILD):
            stack.append(node.arg)
        elif isinstance(node, ARecord):
            stack.extend(sub for _, sub in reversed(node.fields))
        elif isinstance(node, AProj):
            stack.append(node.sub)
        elif isinstance(node, ACall):
            stack.extend(reversed(node.args))


class AClause(Struct):
    __slots__ = ("patterns", "body", "calls")

    def __init__(self, patterns: tuple, body: object, calls: tuple = ()):
        self.patterns = patterns
        self.body = body
        self.calls = calls  # the names called, in order of first call


class ADef(Struct):
    __slots__ = ("fname", "arity", "arg_types", "result_type", "clauses",
                 "line", "col", "calls")

    def __init__(self, fname: str, arity: int, arg_types: tuple,
                 result_type: object, clauses: tuple, line: int = 0,
                 col: int = 0):
        self.fname = fname
        self.arity = arity
        self.arg_types = arg_types
        self.result_type = result_type
        self.clauses = clauses
        self.line = line
        self.col = col
        self.calls = tuple(dict.fromkeys(
            name for cl in clauses for name in cl.calls))


class AnalyzedGroup(Struct):
    __slots__ = ("defs", "priorities")

    def __init__(self, defs: tuple, priorities: dict):
        self.defs = defs
        self.priorities = priorities  # canonical instance -> priority


# ---------------------------------------------------------------------------
# declaration environment

# the instances of a numeral and of a nullary constructor's argument, one
# object each, as types are immutable
_NAT = TApp("nat")
_UNIT = TApp("unit")


class CtorInfo(Struct):
    __slots__ = ("params", "arg", "result")

    def __init__(self, params: tuple, arg: object, result: TApp):
        self.params = params
        self.arg = arg  # single internal argument type
        self.result = result


class DtorInfo(Struct):
    __slots__ = ("params", "owner", "result")

    def __init__(self, params: tuple, owner: TApp, result: object):
        self.params = params
        self.owner = owner
        self.result = result


class DeclEnv:
    def __init__(self, decls):
        self.decls: dict[str, TypeDecl] = {}
        self.ctors: dict[str, CtorInfo] = {}
        self.dtors: dict[str, DtorInfo] = {}
        self.fieldsets: dict[tuple, str] = {}  # sorted field names -> type
        self.targets: dict[TApp, tuple] = {}  # `deconstruction_targets`
        for decl in decls:
            self.decls[decl.name] = decl
        paired = False
        for decl in decls:
            paired = self._register(decl) or paired
        if paired:
            self._reserve_pair(decls)

    def _register(self, decl: TypeDecl) -> bool:
        """Register the items of `decl`; whether it has a two-argument
        constructor.  Its constructors with equal argument types share one
        `CtorInfo`, and its destructors with equal result types one
        `DtorInfo`, as the records are never changed."""
        paired = False
        subject = TApp(decl.name, tuple(TVar(p) for p in decl.params))
        infos: dict = {}  # argument or result type -> its record
        if decl.is_codata:
            names = []
            for name, ty in decl.items:
                if not isinstance(ty, TArrow):
                    raise TypeCheckError(
                        "destructor %r must have an arrow type" % name,
                        decl.line, decl.col)
                if ty.dom != subject:
                    raise TypeCheckError(
                        "destructor %r must take %s" % (name, type_str(subject)),
                        decl.line, decl.col)
                info = infos.get(ty.cod)
                if info is None:
                    info = infos[ty.cod] = DtorInfo(decl.params, subject,
                                                    ty.cod)
                self.dtors[name] = info
                names.append(name)
            self.fieldsets[tuple(sorted(set(names)))] = decl.name
            return False
        for name, ty in decl.items:
            args = []
            t = ty
            while isinstance(t, TArrow):
                args.append(t.dom)
                t = t.cod
            if t != subject:
                raise TypeCheckError(
                    "constructor %r must build %s" % (name, type_str(subject)),
                    decl.line, decl.col)
            if len(args) == 0:
                internal = self._unit()
            elif len(args) == 1:
                internal = args[0]
            elif len(args) == 2:
                internal = TApp("pair", tuple(args))
                paired = True
            else:
                raise TypeCheckError(
                    "constructor %r takes too many arguments" % name,
                    decl.line, decl.col)
            info = infos.get(internal)
            if info is None:
                info = infos[internal] = CtorInfo(decl.params, internal,
                                                  subject)
            self.ctors[name] = info
        return paired

    def _unit(self) -> TApp:
        """The argument type of a nullary constructor, the synthetic `unit`
        unless the program declares one; met only while the environment is
        built, so that every group sees the same declarations."""
        if "unit" not in self.decls:
            synthetic = TypeDecl("unit", (), True, ())
            self.decls["unit"] = synthetic
            self.fieldsets[()] = "unit"
        return _UNIT

    def _reserve_pair(self, decls) -> None:
        """Give two-argument constructors the pair `pair('a, 'b)` with
        fields `Fst` and `Snd`, unless the program declares it: a codata
        `pair` of two parameters with exactly these fields, `Fst` giving the
        first and `Snd` the second.  Any other `pair`, or another codata
        with a field `Fst` or `Snd`, clashes with it."""
        pair_fields = {"Fst", "Snd"}
        for decl in decls:
            fields = {name for name, _ in decl.items}
            if decl.name == "pair":
                if not decl.is_codata or fields != pair_fields:
                    raise TypeCheckError(
                        "type name pair is reserved for two-argument "
                        "constructors unless declared as codata with exactly "
                        "the fields Fst, Snd", decl.line, decl.col)
                params = [TVar(p) for p in decl.params]
                if (len(params) != 2
                        or [ty.cod for _, ty in sorted(decl.items)] != params):
                    raise TypeCheckError(
                        "type name pair is reserved for two-argument "
                        "constructors unless declared as codata pair('a, 'b) "
                        "whose field Fst gives 'a and Snd gives 'b",
                        decl.line, decl.col)
            elif decl.is_codata and fields & pair_fields:
                raise TypeCheckError(
                    "field names Fst/Snd are reserved for two-argument "
                    "constructors", decl.line, decl.col)
        if "pair" not in self.decls:
            subject = TApp("pair", (TVar("a"), TVar("b")))
            self.decls["pair"] = TypeDecl(
                "pair", ("a", "b"), True,
                (("Fst", TArrow(subject, TVar("a"))),
                 ("Snd", TArrow(subject, TVar("b")))))
            self._register(self.decls["pair"])

    def deconstruction_targets(self, inst: TApp) -> tuple:
        """Instances one deconstruction step from `inst`, each once: the
        argument types of its constructors, the result types of its
        destructors.  A function type among them is a `PriorityError`.
        Kept for the environment's one check, as no declaration changes
        after construction, but not a failure."""
        found = self.targets.get(inst)
        if found is not None:
            return found
        decl = self.decls.get(inst.name)
        if decl is None:
            return ()
        if not decl.is_codata:
            types = [self.ctors[name].arg for name, _ in decl.items]
        else:
            types = [self.dtors[name].result for name, _ in decl.items]
        mapping = dict(zip(decl.params, inst.args))
        out = [subst_type(t, mapping) for t in types]
        for t in out:
            if isinstance(t, TArrow):
                raise PriorityError(
                    "higher-order constructor argument %s" % type_str(t))
        found = self.targets[inst] = tuple(dict.fromkeys(
            t for t in out if isinstance(t, TApp)))
        return found

    def polarity(self, inst: TApp) -> int:
        decl = self.decls.get(inst.name)
        if decl is None:
            raise PriorityError("unknown type %r" % inst.name)
        return 0 if decl.is_codata else 1


def subst_type(t, mapping: dict):
    """`t` with its type variables replaced as `mapping` says; types are
    immutable, so without a mapping it is `t` itself."""
    if not mapping:
        return t
    if isinstance(t, TVar):
        return mapping.get(t.name, t)
    if isinstance(t, TApp):
        return TApp(t.name, tuple(subst_type(a, mapping) for a in t.args))
    if isinstance(t, TArrow):
        return TArrow(subst_type(t.dom, mapping), subst_type(t.cod, mapping))
    raise TypeCheckError("bad type %r" % (t,))


def type_vars(t, out: list) -> None:
    if isinstance(t, TVar):
        if t.name not in out:
            out.append(t.name)
    elif isinstance(t, TApp):
        for a in t.args:
            type_vars(a, out)
    elif isinstance(t, TArrow):
        type_vars(t.dom, out)
        type_vars(t.cod, out)


# ---------------------------------------------------------------------------
# unification

class Unifier:
    """Mutable binding store for metavariables (names starting with '%')."""

    def __init__(self):
        self.bindings: dict[str, object] = {}
        self.counter = 0

    def fresh(self) -> TVar:
        self.counter += 1
        return TVar("%%t%d" % self.counter)

    def resolve(self, t):
        while isinstance(t, TVar) and t.name in self.bindings:
            t = self.bindings[t.name]
        return t

    def deep(self, t):
        """`t` with bound metavariables replaced; `t` if none is bound."""
        if not self.bindings:
            return t
        t = self.resolve(t)
        if isinstance(t, TApp):
            return TApp(t.name, tuple(self.deep(a) for a in t.args))
        if isinstance(t, TArrow):
            return TArrow(self.deep(t.dom), self.deep(t.cod))
        return t

    def occurs(self, name: str, t) -> bool:
        t = self.resolve(t)
        if isinstance(t, TVar):
            return t.name == name
        if isinstance(t, TApp):
            return any(self.occurs(name, a) for a in t.args)
        if isinstance(t, TArrow):
            return self.occurs(name, t.dom) or self.occurs(name, t.cod)
        return False

    def unify(self, a, b, line=0, col=0) -> None:
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return
        if isinstance(a, TVar) and a.name.startswith("%"):
            if self.occurs(a.name, b):
                raise TypeCheckError(
                    "cannot build the infinite type %s = %s"
                    % (type_str(a), type_str(self.deep(b))), line, col)
            self.bindings[a.name] = b
            return
        if isinstance(b, TVar) and b.name.startswith("%"):
            self.unify(b, a, line, col)
            return
        if isinstance(a, TVar) or isinstance(b, TVar):
            raise TypeCheckError(
                "type mismatch: %s vs %s (polymorphic signature is more "
                "general)" % (type_str(self.deep(a)), type_str(self.deep(b))),
                line, col)
        if isinstance(a, TApp) and isinstance(b, TApp):
            if a.name != b.name or len(a.args) != len(b.args):
                raise TypeCheckError(
                    "type mismatch: %s vs %s"
                    % (type_str(self.deep(a)), type_str(self.deep(b))),
                    line, col)
            for x, y in zip(a.args, b.args):
                self.unify(x, y, line, col)
            return
        if isinstance(a, TArrow) and isinstance(b, TArrow):
            self.unify(a.dom, b.dom, line, col)
            self.unify(a.cod, b.cod, line, col)
            return
        raise TypeCheckError(
            "type mismatch: %s vs %s"
            % (type_str(self.deep(a)), type_str(self.deep(b))), line, col)


# ---------------------------------------------------------------------------
# checking definition groups

class Scheme(Struct):
    __slots__ = ("arg_types", "result", "quantified")

    def __init__(self, arg_types: tuple, result: object, quantified: tuple):
        self.arg_types = arg_types
        self.result = result
        self.quantified = quantified


def _instantiate(scheme: Scheme, u: Unifier):
    mapping = {name: u.fresh() for name in scheme.quantified}
    return ([subst_type(a, mapping) for a in scheme.arg_types],
            subst_type(scheme.result, mapping))


class GroupChecker:
    def __init__(self, env: DeclEnv, schemes: dict):
        self.env = env
        self.schemes = schemes  # earlier definitions
        self.u = Unifier()
        self.group_sigs: dict[str, tuple] = {}
        self.nodes: list = []  # the instance nodes built, in pre-order
        self.calls: dict = {}  # the names the current clause calls

    def reserve(self) -> int:
        """A slot in `nodes` for an instance node, taken before its parts'."""
        self.nodes.append(None)
        return len(self.nodes) - 1

    def place(self, slot: int, node):
        self.nodes[slot] = node
        return node

    def check(self, defs) -> list:
        adefs = []
        for d in defs:
            arity = d.arity
            if d.signature is not None:
                split = uncurry(d.signature, arity)
                if split is None:
                    raise TypeCheckError(
                        "definition of %r takes %d arguments but its type "
                        "is %s" % (d.fname, arity, type_str(d.signature)),
                        d.line, d.col)
                self.group_sigs[d.fname] = split
            else:
                self.group_sigs[d.fname] = (
                    tuple(self.u.fresh() for _ in range(arity)),
                    self.u.fresh())
        for d in defs:
            adefs.append(self.check_def(d))
        return adefs

    def check_def(self, d: Definition) -> ADef:
        arg_types, result = self.group_sigs[d.fname]
        clauses = []
        for cl in d.clauses:
            var_env: dict[str, object] = {}
            self.calls = {}
            pats = tuple(
                self.check_node(p, expected, var_env, cl, True)
                for p, expected in zip(cl.patterns, arg_types)
            )
            body = self.check_node(cl.body, result, var_env, cl, False)
            clauses.append(AClause(pats, body, tuple(self.calls)))
        return ADef(d.fname, d.arity, tuple(arg_types), result,
                    tuple(clauses), d.line, d.col)

    def constr_type(self, name: str, expected, cl) -> tuple:
        """The instance a constructor `name` builds where `expected` is
        wanted, and the type of its argument there."""
        info = self.env.ctors.get(name)
        if info is None:
            raise TypeCheckError("unknown constructor %r" % name,
                                 cl.line, cl.col)
        mapping = {v: self.u.fresh() for v in info.params}
        result = subst_type(info.result, mapping)
        self.u.unify(expected, result, cl.line, cl.col)
        return result, subst_type(info.arg, mapping)

    def record_type(self, fields, expected, cl) -> tuple:
        """The instance of the codata type with exactly the fields of the
        record `fields` where `expected` is wanted, and the type of each
        field there."""
        names = tuple(sorted({n for n, _ in fields}))
        owner = self.env.fieldsets.get(names)
        if owner is None:
            raise TypeCheckError(
                "no codata type has exactly the fields {%s}"
                % ", ".join(names), cl.line, cl.col)
        decl = self.env.decls[owner]
        mapping = {v: self.u.fresh() for v in decl.params}
        inst = TApp(owner, tuple(mapping[v] for v in decl.params))
        self.u.unify(expected, inst, cl.line, cl.col)
        return inst, [subst_type(self.env.dtors[n].result, mapping)
                      for n, _ in fields]

    def check_node(self, n, expected, var_env, cl, pattern: bool):
        """The annotated node of `n`, a node of a pattern if `pattern` and
        of a body otherwise, where `expected` is wanted."""
        if isinstance(n, SVar) and pattern:
            if n.name in var_env:
                raise TypeCheckError("duplicate variable %r" % n.name,
                                     cl.line, cl.col)
            var_env[n.name] = expected
            return AVar(n.name)
        if isinstance(n, SVar):
            if n.name in var_env:
                self.u.unify(expected, var_env[n.name], cl.line, cl.col)
                return AVar(n.name)
            return self.check_call(n.name, (), expected, var_env, cl)
        if isinstance(n, SConstr):
            inst, arg = self.constr_type(n.name, expected, cl)
            slot = self.reserve()
            return self.place(slot, AConstr(n.name, self.check_node(
                n.args[0], arg, var_env, cl, pattern), instance=inst))
        if isinstance(n, SRecord):
            inst, types = self.record_type(n.fields, expected, cl)
            slot = self.reserve()
            return self.place(slot, ARecord(tuple(
                (fname, self.check_node(sub, ty, var_env, cl, pattern))
                for (fname, sub), ty in zip(n.fields, types)), instance=inst))
        if isinstance(n, SNum) and n.arg is not None:
            self.u.unify(expected, _NAT, cl.line, cl.col)
            slot = self.reserve()
            return self.place(slot, ANum(n.value, self.check_node(
                n.arg, self.env.ctors["Zero"].arg, var_env, cl, pattern),
                instance=_NAT))
        if pattern:
            raise TypeCheckError("pattern not desugared: %r" % (n,),
                                 cl.line, cl.col)
        if isinstance(n, SApp):
            return self.check_call(n.fname, n.args, expected, var_env, cl)
        if isinstance(n, SProj):
            info = self.env.dtors.get(n.fname)
            if info is None:
                raise TypeCheckError("unknown field %r" % n.fname,
                                     cl.line, cl.col)
            mapping = {v: self.u.fresh() for v in info.params}
            inst = subst_type(info.owner, mapping)
            slot = self.reserve()
            sub = self.check_node(n.sub, inst, var_env, cl, False)
            self.u.unify(expected, subst_type(info.result, mapping),
                         cl.line, cl.col)
            return self.place(slot, AProj(sub, n.fname, instance=inst))
        if isinstance(n, SNum):
            raise TypeCheckError("numeral not desugared", cl.line, cl.col)
        raise TypeCheckError("unknown expression %r" % (n,), cl.line, cl.col)

    def check_call(self, fname, args, expected, var_env, cl):
        self.calls[fname] = None
        if fname in self.group_sigs:
            arg_types, result = self.group_sigs[fname]
            arg_types = list(arg_types)
        elif fname in self.schemes:
            arg_types, result = _instantiate(self.schemes[fname], self.u)
        elif fname == "empty_record":
            arg_types = [self.u.fresh() for _ in args]
            result = _UNIT
        else:
            raise TypeCheckError("unknown function %r" % fname,
                                 cl.line, cl.col)
        if len(args) != len(arg_types):
            raise TypeCheckError(
                "function %r applied to %d arguments (expects %d)"
                % (fname, len(args), len(arg_types)), cl.line, cl.col)
        checked = tuple(
            self.check_node(a, ty, var_env, cl, False)
            for a, ty in zip(args, arg_types)
        )
        self.u.unify(expected, result, cl.line, cl.col)
        return ACall(fname, checked)


# ---------------------------------------------------------------------------
# instance resolution and priorities

# Type nodes that closing a group's instances may add, in total.  A nested
# datatype (one whose constructors apply it to other arguments than its
# parameters) reaches infinitely many instances, which may also double in
# size at each step; the corpus and benchmark programs add at most one.
MAX_TYPE_NODES = 1000


def _canonical_names(used: list) -> dict:
    """Map leftover metavariables to type variables of unused short
    names."""
    out = {}
    pool = "abcdefghijklmnopqrstuvwxyz"
    idx = 0
    for name in used:
        if not name.startswith("%"):
            continue
        while True:
            candidate = pool[idx % 26] * (idx // 26 + 1)
            idx += 1
            if candidate not in used:
                break
        out[name] = TVar(candidate)
    return out


def _resolve_instances(nodes, u: Unifier):
    order: list = []
    for node in nodes:
        node.instance = u.deep(node.instance)
        type_vars(node.instance, order)

    rename = _canonical_names(order)
    if not rename:
        return
    for node in nodes:
        node.instance = subst_type(node.instance, rename)


def _proper_subexprs(t):
    """Instances strictly inside the instance `t`, in pre-order."""
    for a in t.args:
        if isinstance(a, TApp):
            yield a
            yield from _proper_subexprs(a)


def _nodes(t, limit: int) -> int:
    """Nodes of the type `t`, counted up to one past `limit`."""
    count, stack = 0, [t]
    while stack and count <= limit:
        t = stack.pop()
        count += 1
        if isinstance(t, TApp):
            stack.extend(t.args)
        elif isinstance(t, TArrow):
            stack += (t.dom, t.cod)
    return count


def dominance(nodes, env: DeclEnv):
    """Reachable instances and, per instance, the instances it must exceed,
    from the instance nodes `nodes` (`GroupChecker.nodes`).

    An instance must exceed each instance it is a proper subexpression of,
    and each instance that reaches it in one deconstruction step unless it
    reaches that one back (two instances share a cycle of the
    deconstruction graph exactly when each reaches the other).
    """
    # close under subexpressions and one-step deconstruction in FIFO order,
    # recording each instance's deconstruction targets on its visit
    targets: dict = dict.fromkeys(
        node.instance for node in nodes if isinstance(node.instance, TApp))
    order = list(targets)
    added = 0
    for current in order:  # grows while it is read
        targets[current] = env.deconstruction_targets(current)
        for t in (*_proper_subexprs(current), *targets[current]):
            size = _nodes(t, MAX_TYPE_NODES)
            if size <= MAX_TYPE_NODES and t in targets:
                continue
            added += size
            if added > MAX_TYPE_NODES:
                heads = Counter(i.name for i in order)
                raise PriorityError(
                    "priority assignment exceeded its type node cap (%d), "
                    "mostly in instances of %s; nested datatypes are not "
                    "supported" % (MAX_TYPE_NODES, max(heads, key=heads.get)))
            targets[t] = None
            order.append(t)

    reach = {t: _reachable(t, targets) for t in order}
    must_exceed: dict = {t: [] for t in order}
    for t in order:
        above = [*_proper_subexprs(t),
                 *(s for s in targets[t] if t not in reach[s])]
        for s in dict.fromkeys(above):
            must_exceed[s].append(t)
    return order, must_exceed


def _reachable(start, targets: dict) -> set:
    seen, stack = {start}, [start]
    while stack:
        new = set(targets[stack.pop()]) - seen
        seen |= new
        stack += new
    return seen


def assign_priorities(nodes, env: DeclEnv) -> dict:
    """Priorities for every type instance reachable from the instance nodes
    `nodes`: each instance gets the least number of its parity above every
    instance it must exceed, in one topological pass."""
    universe, must_exceed = dominance(nodes, env)
    waiting = {t: len(below) for t, below in must_exceed.items()}
    above: dict = {t: [] for t in universe}
    for t, below in must_exceed.items():
        for s in below:
            above[s].append(t)

    values: dict = {}
    ready = [t for t in universe if not waiting[t]]
    for t in ready:  # grows while it is read
        floor = max((values[s] for s in must_exceed[t]), default=-1)
        values[t] = floor + 1 + (floor + 1 - env.polarity(t)) % 2
        for u in above[t]:
            waiting[u] -= 1
            if not waiting[u]:
                ready.append(u)
    if len(values) < len(universe):
        raise PriorityError(
            "priority assignment failed: cyclic dominance between %s"
            % ", ".join(sorted(type_str(t) for t in universe
                               if t not in values)))
    return values


def annotate_priorities(nodes, priorities: dict) -> None:
    for node in nodes:
        node.prio = priorities.get(node.instance)
        if node.prio is None:
            raise PriorityError(
                "no priority for instance %s" % type_str(node.instance))


def annotate_group(env: DeclEnv, schemes: dict, defs) -> AnalyzedGroup:
    """Full typing pipeline for one group; extends `schemes` in place."""
    checker = GroupChecker(env, schemes)
    adefs = checker.check(defs)
    nodes = checker.nodes
    _resolve_instances(nodes, checker.u)
    for adef in adefs:
        adef.arg_types = tuple(map(checker.u.deep, adef.arg_types))
        adef.result_type = checker.u.deep(adef.result_type)
    priorities = assign_priorities(nodes, env)
    annotate_priorities(nodes, priorities)
    for adef in adefs:
        quantified: list = []
        for t in adef.arg_types + (adef.result_type,):
            type_vars(t, quantified)
        schemes[adef.fname] = Scheme(adef.arg_types, adef.result_type,
                                     tuple(quantified))
    return AnalyzedGroup(tuple(adefs), priorities)
