// Tiny integer expression trees for directive arguments.
//
// Directive clauses contain expressions over named constants and the split
// loop's variable: `k-1`, `2*k+1`, `ny`, `nx*ny`. The parser builds these
// trees; binding evaluates them against an environment and classifies the
// split_iter expression as an affine function of the loop variable (the only
// form the runtime supports, matching the paper's examples).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/error.hpp"

namespace gpupipe::dsl {

/// Variable bindings available when evaluating directive expressions.
using Env = std::map<std::string, std::int64_t>;

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable integer expression tree.
class Expr {
 public:
  enum class Kind { Num, Var, Add, Sub, Mul, Neg };

  static ExprPtr num(std::int64_t v) { return ExprPtr(new Expr(Kind::Num, v, {}, {}, {})); }
  static ExprPtr var(std::string name) {
    return ExprPtr(new Expr(Kind::Var, 0, std::move(name), {}, {}));
  }
  static ExprPtr add(ExprPtr a, ExprPtr b) {
    return ExprPtr(new Expr(Kind::Add, 0, {}, std::move(a), std::move(b)));
  }
  static ExprPtr sub(ExprPtr a, ExprPtr b) {
    return ExprPtr(new Expr(Kind::Sub, 0, {}, std::move(a), std::move(b)));
  }
  static ExprPtr mul(ExprPtr a, ExprPtr b) {
    return ExprPtr(new Expr(Kind::Mul, 0, {}, std::move(a), std::move(b)));
  }
  static ExprPtr neg(ExprPtr a) {
    return ExprPtr(new Expr(Kind::Neg, 0, {}, std::move(a), {}));
  }

  /// Evaluates against `env`; throws Error for unbound variables.
  std::int64_t eval(const Env& env) const {
    switch (kind_) {
      case Kind::Num: return value_;
      case Kind::Var: {
        auto it = env.find(name_);
        if (it == env.end())
          require(false, "directive references unbound variable '" + name_ + "'");
        return it->second;
      }
      case Kind::Add: return lhs_->eval(env) + rhs_->eval(env);
      case Kind::Sub: return lhs_->eval(env) - rhs_->eval(env);
      case Kind::Mul: return lhs_->eval(env) * rhs_->eval(env);
      case Kind::Neg: return -lhs_->eval(env);
    }
    throw Error("corrupt expression tree");
  }

  /// True when the tree mentions variable `var`.
  bool references(const std::string& var) const {
    switch (kind_) {
      case Kind::Num: return false;
      case Kind::Var: return name_ == var;
      case Kind::Neg: return lhs_->references(var);
      default: return lhs_->references(var) || rhs_->references(var);
    }
  }

  /// Adds every variable the tree mentions to `out`.
  template <typename Set>
  void collect_vars(Set& out) const {
    switch (kind_) {
      case Kind::Num: return;
      case Kind::Var: out.insert(name_); return;
      case Kind::Neg: lhs_->collect_vars(out); return;
      default:
        lhs_->collect_vars(out);
        rhs_->collect_vars(out);
    }
  }

  /// Human-readable form (diagnostics).
  std::string str() const {
    switch (kind_) {
      case Kind::Num: return std::to_string(value_);
      case Kind::Var: return name_;
      case Kind::Add: return binary_str('+');
      case Kind::Sub: return binary_str('-');
      case Kind::Mul: return binary_str('*');
      case Kind::Neg: {
        std::string s = "(-";
        s += lhs_->str();
        s += ')';
        return s;
      }
    }
    return "?";
  }

 private:
  Expr(Kind k, std::int64_t v, std::string n, ExprPtr l, ExprPtr r)
      : kind_(k), value_(v), name_(std::move(n)), lhs_(std::move(l)), rhs_(std::move(r)) {}

  std::string binary_str(char op) const {
    std::string s = "(";
    s += lhs_->str();
    s += op;
    s += rhs_->str();
    s += ')';
    return s;
  }

  Kind kind_;
  std::int64_t value_;
  std::string name_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

}  // namespace gpupipe::dsl
