#include "compiler/analysis.h"

#include <algorithm>
#include <numeric>

#include "support/logging.h"

namespace sara::compiler {

using namespace ir;

std::vector<TensorAccess>
collectAccessors(const Program &p)
{
    std::vector<TensorAccess> out(p.numTensors());
    for (size_t t = 0; t < p.numTensors(); ++t)
        out[t].tensor = TensorId(t);
    p.forEachCtrl([&](const CtrlNode &node) {
        if (!node.isLeaf())
            return;
        for (OpId oid : node.ops) {
            const Op &o = p.op(oid);
            if (!isMemoryOp(o.kind))
                continue;
            Accessor a;
            a.op = oid;
            a.block = node.id;
            a.tensor = o.tensor;
            a.isWrite = o.kind == OpKind::Write;
            a.form = matchAffine(p, o.operands[0]);
            auto &ta = out[o.tensor.index()];
            a.index = ta.accessors.size();
            ta.accessors.push_back(std::move(a));
        }
    });
    return out;
}

namespace {

Lattice
formLattice(const Program &p, const AffineForm &form)
{
    Lattice lat;
    lat.residue = form.base;
    lat.gcd = 0;
    for (const auto &[loop, c] : form.coeffs) {
        if (c == 0)
            continue;
        const CtrlNode &node = p.ctrl(loop);
        if (node.kind != CtrlKind::Loop || !node.min.isConst ||
            !node.step.isConst)
            return lat; // invalid
        lat.residue += c * node.min.cval;
        lat.gcd = std::gcd(lat.gcd, std::abs(c * node.step.cval));
    }
    lat.valid = true;
    return lat;
}

bool
formInjective(const Program &p, const AffineForm &form)
{
    std::vector<std::pair<int64_t, int64_t>> terms; // (|c*step|, trips)
    for (const auto &[l, c] : form.coeffs) {
        if (c == 0)
            continue;
        const CtrlNode &n = p.ctrl(l);
        if (n.kind != CtrlKind::Loop || !n.min.isConst ||
            !n.max.isConst || !n.step.isConst)
            return false;
        int64_t trips =
            (n.max.cval - n.min.cval + n.step.cval - 1) / n.step.cval;
        if (trips <= 0)
            return false;
        terms.push_back({std::abs(c * n.step.cval), trips});
    }
    std::sort(terms.begin(), terms.end());
    int64_t reach = 0;
    for (const auto &[c, trips] : terms) {
        if (c <= reach)
            return false;
        reach += c * (trips - 1);
    }
    return true;
}

} // namespace

int64_t
AddressFacts::coeff(CtrlId loop) const
{
    for (const auto &[l, c] : coeffs)
        if (l == loop)
            return c;
    return 0;
}

AddressFacts
addressFacts(const Program &p, const Accessor &a)
{
    AddressFacts f;
    if (!a.form)
        return f;
    const AffineForm &form = *a.form;
    f.affine = true;
    f.base = form.base;
    std::vector<CtrlId> loops;
    for (const auto &[loop, c] : form.coeffs) {
        if (c == 0)
            continue;
        f.coeffs.push_back({loop, c});
        loops.push_back(loop);
    }
    f.span = affineSpan(p, form, loops);
    f.lattice = formLattice(p, form);
    f.injective = formInjective(p, form);
    return f;
}

bool
mayAlias(const AddressFacts &a, const AddressFacts &b)
{
    if (!a.affine || !b.affine)
        return true;

    // Span test: disjoint address ranges never alias.
    const auto &sa = a.span, &sb = b.span;
    if (sa && sb && (sa->second < sb->first || sb->second < sa->first))
        return false;

    // Modular lattice test: A ⊆ ra + ga*Z, B ⊆ rb + gb*Z are disjoint
    // when (ra - rb) is not divisible by gcd(ga, gb).
    const Lattice &la = a.lattice, &lb = b.lattice;
    if (la.valid && lb.valid) {
        int64_t g = std::gcd(la.gcd, lb.gcd);
        if (g > 0 && ((la.residue - lb.residue) % g) != 0)
            return false;
        if (g == 0 && la.residue != lb.residue)
            return false; // Both constant addresses, different values.
    }
    return true;
}

bool
mayAlias(const Program &p, const Accessor &a, const Accessor &b)
{
    return mayAlias(addressFacts(p, a), addressFacts(p, b));
}

bool
lcdMayAlias(const AddressFacts &a, const AddressFacts &b, CtrlId loop,
            const std::vector<CtrlId> &enclosing)
{
    if (!a.affine || !b.affine)
        return true;
    // Only the identical-form case gets the sharper cross-iteration
    // test; otherwise fall back to the whole-space test.
    if (a.base != b.base || a.coeffs != b.coeffs)
        return mayAlias(a, b);

    // Identical form. The LCD token (at LCA rate) orders the accessors
    // across iterations of `loop` AND of every loop enclosing it, so a
    // collision at any distinct common-iteration point keeps the edge:
    //  - a common loop the address ignores repeats the same addresses
    //    every one of its iterations -> collide;
    //  - otherwise the form must be injective over its whole iteration
    //    space (mixed-radix dominance) to rule out cancellation.
    if (a.coeff(loop) == 0)
        return true;
    for (CtrlId l : enclosing)
        if (a.coeff(l) == 0)
            return true;
    return !a.injective;
}

bool
lcdMayAlias(const Program &p, const Accessor &a, const Accessor &b,
            CtrlId loop)
{
    return lcdMayAlias(addressFacts(p, a), addressFacts(p, b), loop,
                       p.enclosingLoops(loop));
}

int
levelAt(const Program &p, CtrlId block, CtrlId scope)
{
    int count = 0;
    for (CtrlId loop : p.enclosingLoops(block))
        if (loop == scope || p.isAncestor(loop, scope))
            ++count;
    return count;
}

std::vector<BranchAncestor>
branchAncestors(const Program &p, CtrlId node)
{
    std::vector<BranchAncestor> out;
    auto chain = p.ancestry(node);
    for (size_t i = 0; i + 1 < chain.size(); ++i) {
        const CtrlNode &n = p.ctrl(chain[i]);
        if (n.kind != CtrlKind::Branch)
            continue;
        CtrlId child = chain[i + 1];
        bool inThen = std::find(n.children.begin(), n.children.end(),
                                child) != n.children.end();
        out.push_back({n.id, inThen});
    }
    return out;
}

bool
exclusiveClauses(const std::vector<BranchAncestor> &a,
                 const std::vector<BranchAncestor> &b)
{
    for (const auto &x : a)
        for (const auto &y : b)
            if (x.branch == y.branch && x.inThen != y.inThen)
                return true;
    return false;
}

bool
exclusiveClauses(const Program &p, CtrlId a, CtrlId b)
{
    return exclusiveClauses(branchAncestors(p, a), branchAncestors(p, b));
}

CtrlId
innermostCommonLoop(const Program &p, const std::vector<CtrlId> &a,
                    const std::vector<CtrlId> &b)
{
    if (a.empty() || b.empty())
        return CtrlId{};
    // The chains agree from the root down to the nodes' LCA; walk from
    // there toward the root.
    size_t common = 0;
    while (common < std::min(a.size(), b.size()) && a[common] == b[common])
        ++common;
    for (size_t i = common; i-- > 0;) {
        CtrlId cur = a[i];
        const CtrlNode &n = p.ctrl(cur);
        if ((n.kind == CtrlKind::Loop || n.kind == CtrlKind::While) &&
            cur != a.back() && cur != b.back())
            return cur;
    }
    return CtrlId{};
}

CtrlId
innermostCommonLoop(const Program &p, CtrlId a, CtrlId b)
{
    return innermostCommonLoop(p, p.ancestry(a), p.ancestry(b));
}

bool
whileBetween(const Program &p, CtrlId scope, CtrlId node)
{
    for (CtrlId cur = node; cur.valid() && cur != scope;
         cur = p.ctrl(cur).parent)
        if (cur != node && p.ctrl(cur).kind == CtrlKind::While)
            return true;
    return false;
}

} // namespace sara::compiler
