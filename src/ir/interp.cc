#include "ir/interp.h"

#include <cmath>
#include <limits>

#include "support/logging.h"

namespace sara::ir {

void
evalLanes(OpKind kind, const double *a, const double *b, const double *c,
          double *out, int lanes)
{
    // The switch runs once per op; each kind's lane loop is its own
    // straight-line kernel.
    auto unary = [&](auto f) {
        for (int l = 0; l < lanes; ++l)
            out[l] = f(a[l]);
    };
    auto binary = [&](auto f) {
        for (int l = 0; l < lanes; ++l)
            out[l] = f(a[l], b[l]);
    };
    auto flag = [](bool v) { return v ? 1.0 : 0.0; };
    switch (kind) {
      case OpKind::Neg: return unary([](double x) { return -x; });
      case OpKind::Abs:
        return unary([](double x) { return std::fabs(x); });
      case OpKind::Exp:
        return unary([](double x) { return std::exp(x); });
      case OpKind::Log:
        return unary([](double x) { return std::log(x); });
      case OpKind::Sqrt:
        return unary([](double x) { return std::sqrt(x); });
      case OpKind::Sigmoid:
        return unary([](double x) { return 1.0 / (1.0 + std::exp(-x)); });
      case OpKind::Tanh:
        return unary([](double x) { return std::tanh(x); });
      case OpKind::Relu:
        return unary([](double x) { return x > 0.0 ? x : 0.0; });
      case OpKind::Floor:
        return unary([](double x) { return std::floor(x); });
      case OpKind::Not:
        return unary([&](double x) { return flag(x == 0.0); });
      case OpKind::Add:
        return binary([](double x, double y) { return x + y; });
      case OpKind::Sub:
        return binary([](double x, double y) { return x - y; });
      case OpKind::Mul:
        return binary([](double x, double y) { return x * y; });
      case OpKind::Div:
        return binary([](double x, double y) { return x / y; });
      // fmin / fmax, with the tie of +0 and -0 (unspecified in C, and
      // resolved by whichever operand order the compiler passes to libm)
      // pinned to the first operand.
      case OpKind::Min:
        return binary([](double x, double y) {
            return std::isnan(x) || y < x ? y : x;
        });
      case OpKind::Max:
        return binary([](double x, double y) {
            return std::isnan(x) || y > x ? y : x;
        });
      case OpKind::Mod:
        return binary([](double x, double y) { return std::fmod(x, y); });
      case OpKind::And:
        return binary([&](double x, double y) {
            return flag(x != 0.0 && y != 0.0);
        });
      case OpKind::Or:
        return binary([&](double x, double y) {
            return flag(x != 0.0 || y != 0.0);
        });
      case OpKind::CmpLt:
        return binary([&](double x, double y) { return flag(x < y); });
      case OpKind::CmpLe:
        return binary([&](double x, double y) { return flag(x <= y); });
      case OpKind::CmpEq:
        return binary([&](double x, double y) { return flag(x == y); });
      case OpKind::CmpNe:
        return binary([&](double x, double y) { return flag(x != y); });
      case OpKind::CmpGt:
        return binary([&](double x, double y) { return flag(x > y); });
      case OpKind::CmpGe:
        return binary([&](double x, double y) { return flag(x >= y); });
      case OpKind::Select:
        for (int l = 0; l < lanes; ++l)
            out[l] = a[l] != 0.0 ? b[l] : c[l];
        return;
      case OpKind::Mac:
        // Two roundings, never a fused multiply-add: the product is its
        // own statement, and an ISO C++ build (no GNU extensions) does
        // not contract across statements.
        for (int l = 0; l < lanes; ++l) {
            const double prod = a[l] * b[l];
            out[l] = prod + c[l];
        }
        return;
      default:
        panic("evalLanes: op ", opName(kind), " is not a scalar op");
    }
}

namespace {

double
reduceIdentity(OpKind kind)
{
    switch (kind) {
      case OpKind::RedAdd: return 0.0;
      case OpKind::RedMul: return 1.0;
      case OpKind::RedMin: return std::numeric_limits<double>::infinity();
      case OpKind::RedMax: return -std::numeric_limits<double>::infinity();
      default: panic("not a reduce op");
    }
}

double
reduceCombine(OpKind kind, double acc, double v)
{
    switch (kind) {
      case OpKind::RedAdd: return acc + v;
      case OpKind::RedMul: return acc * v;
      case OpKind::RedMin: return std::fmin(acc, v);
      case OpKind::RedMax: return std::fmax(acc, v);
      default: panic("not a reduce op");
    }
}

} // namespace

Interpreter::Interpreter(const Program &program) : p_(program)
{
    tensors_.resize(p_.numTensors());
    for (size_t i = 0; i < p_.numTensors(); ++i)
        tensors_[i].assign(p_.tensor(TensorId(i)).size, 0.0);
    values_.assign(p_.numOps(), 0.0);
    iters_.assign(p_.numCtrls(), 0);
    loopReduces_.resize(p_.numCtrls());
    for (size_t i = 0; i < p_.numOps(); ++i) {
        const Op &o = p_.op(OpId(i));
        if (isReduceOp(o.kind))
            loopReduces_[o.ctrl.index()].push_back(o.id);
    }
}

void
Interpreter::setTensor(TensorId id, std::vector<double> data)
{
    SARA_ASSERT(data.size() ==
                    static_cast<size_t>(p_.tensor(id).size),
                "setTensor size mismatch for ", p_.tensor(id).name);
    tensors_[id.index()] = std::move(data);
}

InterpResult
Interpreter::run()
{
    for (CtrlId c : p_.ctrl(p_.root()).children)
        execCtrl(c);
    InterpResult result;
    result.tensors = tensors_;
    result.firings = firings_;
    result.opsExecuted = opsExecuted_;
    return result;
}

int64_t
Interpreter::boundValue(const Bound &b) const
{
    if (b.isConst)
        return b.cval;
    return std::llround(value(b.op));
}

void
Interpreter::execCtrl(CtrlId id)
{
    const CtrlNode &node = p_.ctrl(id);
    switch (node.kind) {
      case CtrlKind::Seq:
        for (CtrlId c : node.children)
            execCtrl(c);
        break;
      case CtrlKind::Loop: {
        // Reduction accumulators over this loop reset at round entry.
        for (OpId r : loopReduces_[id.index()])
            values_[r.index()] = reduceIdentity(p_.op(r).kind);
        int64_t min = boundValue(node.min);
        int64_t max = boundValue(node.max);
        int64_t step = boundValue(node.step);
        SARA_ASSERT(step > 0, "loop ", node.name,
                    " requires a positive step");
        for (int64_t i = min; i < max; i += step) {
            iters_[id.index()] = i;
            for (CtrlId c : node.children)
                execCtrl(c);
        }
        break;
      }
      case CtrlKind::Branch: {
        bool taken = value(node.cond) != 0.0;
        const auto &clause = taken ? node.children : node.elseChildren;
        for (CtrlId c : clause)
            execCtrl(c);
        break;
      }
      case CtrlKind::While: {
        for (OpId r : loopReduces_[id.index()])
            values_[r.index()] = reduceIdentity(p_.op(r).kind);
        uint64_t rounds = 0;
        do {
            iters_[id.index()] = static_cast<int64_t>(rounds);
            for (CtrlId c : node.children)
                execCtrl(c);
            if (++rounds > kMaxWhileRounds)
                fatal("do-while ", node.name, " exceeded ",
                      kMaxWhileRounds, " rounds; non-terminating?");
        } while (value(node.cond) != 0.0);
        break;
      }
      case CtrlKind::Block:
        execBlock(node);
        break;
    }
}

void
Interpreter::execBlock(const CtrlNode &block)
{
    ++firings_;
    double args[3];
    for (OpId oid : block.ops) {
        const Op &o = p_.op(oid);
        ++opsExecuted_;
        for (size_t a = 0; a < o.operands.size(); ++a)
            args[a] = value(o.operands[a]);
        switch (o.kind) {
          case OpKind::Const:
            values_[oid.index()] = o.cval;
            break;
          case OpKind::Iter:
            values_[oid.index()] =
                static_cast<double>(iters_[o.ctrl.index()]);
            break;
          case OpKind::Read: {
            auto &mem = tensors_[o.tensor.index()];
            int64_t addr = std::llround(args[0]);
            SARA_ASSERT(addr >= 0 &&
                            addr < static_cast<int64_t>(mem.size()),
                        "read OOB on ", p_.tensor(o.tensor).name,
                        " addr ", addr);
            values_[oid.index()] = mem[addr];
            break;
          }
          case OpKind::Write: {
            auto &mem = tensors_[o.tensor.index()];
            int64_t addr = std::llround(args[0]);
            SARA_ASSERT(addr >= 0 &&
                            addr < static_cast<int64_t>(mem.size()),
                        "write OOB on ", p_.tensor(o.tensor).name,
                        " addr ", addr);
            mem[addr] = args[1];
            break;
          }
          case OpKind::RedAdd:
          case OpKind::RedMin:
          case OpKind::RedMax:
          case OpKind::RedMul:
            values_[oid.index()] =
                reduceCombine(o.kind, values_[oid.index()], args[0]);
            break;
          default:
            values_[oid.index()] = evalScalar(o.kind, args);
            break;
        }
    }
}

} // namespace sara::ir
