// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The XQuery abstract syntax tree shared by the parser (which builds it
// behind the opaque Expr handle) and the engine (which walks it). The node
// set covers the paper's FLWOR subset: for/let/return with multiple
// bindings, if/then/else, quantified some/every ... satisfies, or/and,
// general comparisons, +/-/* arithmetic, path expressions over the standard
// and extended axes with the leaf() node test, predicates, function calls,
// and direct element constructors with enclosed expressions.

#ifndef MHX_XQUERY_AST_H_
#define MHX_XQUERY_AST_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "xpath/axes.h"

namespace mhx::xquery {

// Discriminator of AstNode; the comments note each kind's child layout.
enum class ExprKind {
  kStringLiteral,
  kIntegerLiteral,
  kVarRef,
  kContextItem,
  kSequence,   // children: the items (possibly none: "()")
  kFor,        // name: variable; children: {binding sequence, return body}
  kLet,        // name: variable; children: {bound value, return body}
  kQuantified, // name: variable; children: {binding sequence, satisfies}
  kIf,         // children: {condition, then, else}
  kOr,         // children: operands (n-ary, short-circuit)
  kAnd,
  kCompare,    // children: {lhs, rhs}
  kArith,      // children: {lhs, rhs}
  kPath,
  kFunctionCall,  // name: function; children: arguments
  kConstructor,
};

// Operators carried by kCompare / kArith nodes.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul };

struct AstNode;

// One step of a path expression. The first step may be a primary expression
// (`$x`, a function call, a parenthesised expression); all other steps are
// axis steps.
struct PathStep {
  enum class Test { kName, kAnyElement, kAnyNode, kLeaf };

  std::unique_ptr<AstNode> primary;  // set => primary step, axis/test unused
  xpath::Axis axis = xpath::Axis::kChild;
  Test test = Test::kName;
  std::string name;  // Test::kName only
  std::vector<std::unique_ptr<AstNode>> predicates;
};

// A piece of a direct constructor's attribute value or content: literal text
// or an enclosed `{ expression }`.
struct ConstructorPart {
  std::string text;
  std::unique_ptr<AstNode> expr;  // set => enclosed expression
};

// One attribute of a direct constructor; the value is a part sequence.
struct ConstructorAttribute {
  std::string name;
  std::vector<ConstructorPart> parts;
};

// The parser's output node: one ExprKind plus the fields that kind uses
// (see the ExprKind comments for each layout).
struct AstNode {
  explicit AstNode(ExprKind k) : kind(k) {}

  ExprKind kind;
  // Offset into the query source, for anchored diagnostics.
  size_t offset = 0;

  std::string string_value;   // kStringLiteral
  int64_t integer_value = 0;  // kIntegerLiteral
  // kVarRef / FLWOR binding variable / kFunctionCall name / constructor tag.
  std::string name;
  bool every = false;  // kQuantified: false = some, true = every

  // kFor / kQuantified only, stamped once by ParseQuery (the AST is
  // immutable afterwards, and loops re-read these on every execution —
  // including nested loops entered once per outer binding): the cached
  // result of ContainsAnalyzeString on children[1].
  bool body_contains_analyze_string = false;

  CompareOp compare_op = CompareOp::kEq;  // kCompare
  ArithOp arith_op = ArithOp::kAdd;       // kArith

  std::vector<std::unique_ptr<AstNode>> children;

  bool absolute = false;        // kPath: leading '/'
  std::vector<PathStep> steps;  // kPath

  std::vector<ConstructorAttribute> attributes;  // kConstructor
  std::vector<ConstructorPart> content;          // kConstructor
};

// Compact s-expression rendering of the tree, for tests and debugging, e.g.
// ParseQuery("for $w in /descendant::w return string($w)") renders as
// "(for $w (path / descendant::w) (call string (path $w)))".
std::string DebugString(const AstNode& node);

// Invokes `fn` on every direct sub-expression of `node`: children, path
// step primaries and predicates, constructor attribute and content parts.
// The one enumeration every whole-tree walk builds on (ContainsAnalyzeString,
// the parser's classification stamping) — a new AST
// slot holding expressions only needs wiring here.
void VisitSubExprs(const AstNode& node,
                   const std::function<void(const AstNode&)>& fn);
void VisitSubExprs(AstNode& node, const std::function<void(AstNode&)>& fn);

// True when the subtree contains an analyze-string() call, i.e. evaluating
// it can materialise temporary hierarchies. The engine evaluates each
// binding of a loop whose body can in an isolated child overlay view, all
// bindings' overlays merged into the enclosing view at loop exit, so a body
// sees the enclosing scope's temporaries plus its own and never a sibling
// binding's (xquery/engine.h).
bool ContainsAnalyzeString(const AstNode& node);

std::string_view CompareOpName(CompareOp op);
std::string_view ArithOpName(ArithOp op);

}  // namespace mhx::xquery

#endif  // MHX_XQUERY_AST_H_
