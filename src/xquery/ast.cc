// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "xquery/ast.h"

namespace mhx::xquery {

namespace {

void Append(const AstNode& node, std::string* out);

void AppendChildren(const AstNode& node, std::string* out) {
  for (const auto& child : node.children) {
    out->push_back(' ');
    Append(*child, out);
  }
}

void AppendParts(const std::vector<ConstructorPart>& parts, std::string* out) {
  for (const ConstructorPart& part : parts) {
    out->push_back(' ');
    if (part.expr != nullptr) {
      out->push_back('{');
      Append(*part.expr, out);
      out->push_back('}');
    } else {
      *out += "\"" + part.text + "\"";
    }
  }
}

void AppendStep(const PathStep& step, std::string* out) {
  if (step.primary != nullptr) {
    Append(*step.primary, out);
  } else {
    *out += std::string(xpath::AxisName(step.axis)) + "::";
    switch (step.test) {
      case PathStep::Test::kName:
        *out += step.name;
        break;
      case PathStep::Test::kAnyElement:
        *out += "*";
        break;
      case PathStep::Test::kAnyNode:
        *out += "node()";
        break;
      case PathStep::Test::kLeaf:
        *out += "leaf()";
        break;
    }
  }
  for (const auto& pred : step.predicates) {
    out->push_back('[');
    Append(*pred, out);
    out->push_back(']');
  }
}

void Append(const AstNode& node, std::string* out) {
  switch (node.kind) {
    case ExprKind::kStringLiteral:
      *out += "\"" + node.string_value + "\"";
      return;
    case ExprKind::kIntegerLiteral:
      *out += std::to_string(node.integer_value);
      return;
    case ExprKind::kVarRef:
      *out += "$" + node.name;
      return;
    case ExprKind::kContextItem:
      *out += ".";
      return;
    case ExprKind::kSequence:
      *out += "(seq";
      AppendChildren(node, out);
      *out += ")";
      return;
    case ExprKind::kFor:
      *out += "(for $" + node.name;
      AppendChildren(node, out);
      *out += ")";
      return;
    case ExprKind::kLet:
      *out += "(let $" + node.name;
      AppendChildren(node, out);
      *out += ")";
      return;
    case ExprKind::kQuantified:
      *out += std::string("(") + (node.every ? "every" : "some") + " $" +
              node.name;
      AppendChildren(node, out);
      *out += ")";
      return;
    case ExprKind::kIf:
      *out += "(if";
      AppendChildren(node, out);
      *out += ")";
      return;
    case ExprKind::kOr:
      *out += "(or";
      AppendChildren(node, out);
      *out += ")";
      return;
    case ExprKind::kAnd:
      *out += "(and";
      AppendChildren(node, out);
      *out += ")";
      return;
    case ExprKind::kCompare:
      *out += "(" + std::string(CompareOpName(node.compare_op));
      AppendChildren(node, out);
      *out += ")";
      return;
    case ExprKind::kArith:
      *out += "(" + std::string(ArithOpName(node.arith_op));
      AppendChildren(node, out);
      *out += ")";
      return;
    case ExprKind::kPath: {
      *out += "(path";
      if (node.absolute) *out += " /";
      for (const PathStep& step : node.steps) {
        out->push_back(' ');
        AppendStep(step, out);
      }
      *out += ")";
      return;
    }
    case ExprKind::kFunctionCall:
      *out += "(call " + node.name;
      AppendChildren(node, out);
      *out += ")";
      return;
    case ExprKind::kConstructor: {
      *out += "(elem " + node.name;
      for (const ConstructorAttribute& attr : node.attributes) {
        *out += " @" + attr.name + "=(";
        AppendParts(attr.parts, out);
        *out += ")";
      }
      if (!node.content.empty()) {
        *out += " (content";
        AppendParts(node.content, out);
        *out += ")";
      }
      *out += ")";
      return;
    }
  }
}

}  // namespace

std::string DebugString(const AstNode& node) {
  std::string out;
  Append(node, &out);
  return out;
}

void VisitSubExprs(const AstNode& node,
                   const std::function<void(const AstNode&)>& fn) {
  for (const auto& child : node.children) fn(*child);
  for (const PathStep& step : node.steps) {
    if (step.primary != nullptr) fn(*step.primary);
    for (const auto& predicate : step.predicates) fn(*predicate);
  }
  for (const ConstructorAttribute& attribute : node.attributes) {
    for (const ConstructorPart& part : attribute.parts) {
      if (part.expr != nullptr) fn(*part.expr);
    }
  }
  for (const ConstructorPart& part : node.content) {
    if (part.expr != nullptr) fn(*part.expr);
  }
}

void VisitSubExprs(AstNode& node, const std::function<void(AstNode&)>& fn) {
  VisitSubExprs(static_cast<const AstNode&>(node),
                [&fn](const AstNode& child) {
                  fn(const_cast<AstNode&>(child));
                });
}

// Runs once per query at parse time (ParseQuery stamps loop nodes), so it
// does not bother to short-circuit the traversal.

bool ContainsAnalyzeString(const AstNode& node) {
  if (node.kind == ExprKind::kFunctionCall && node.name == "analyze-string") {
    return true;
  }
  bool found = false;
  VisitSubExprs(node, [&found](const AstNode& child) {
    found = found || ContainsAnalyzeString(child);
  });
  return found;
}

std::string_view CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string_view ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
  }
  return "?";
}

}  // namespace mhx::xquery
