// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "xquery/parser.h"

#include <limits>
#include <utility>

#include "base/chars.h"
#include "base/status_macros.h"
#include "xquery/ast.h"
#include "xquery/lexer.h"

namespace mhx::xquery {

Expr::Expr(std::string source, std::unique_ptr<AstNode> root)
    : source_(std::move(source)), root_(std::move(root)) {}
Expr::~Expr() = default;
Expr::Expr(Expr&&) noexcept = default;
Expr& Expr::operator=(Expr&&) noexcept = default;

namespace {

using NodePtr = std::unique_ptr<AstNode>;

// Recursion (and the recursive AstNode destructor) is proportional to
// expression nesting; cap it so hostile queries get an error Status instead
// of a stack overflow.
constexpr int kMaxParseDepth = 400;

class Parser {
 public:
  explicit Parser(std::string_view source) : lex_(source), src_(source) {}

  StatusOr<NodePtr> Parse() {
    Advance();
    MHX_ASSIGN_OR_RETURN(NodePtr root, ParseExpr());
    if (cur_.kind != TokenKind::kEof) {
      return Error("unexpected trailing " +
                   std::string(TokenKindName(cur_.kind)));
    }
    return root;
  }

 private:
  // --- token plumbing ------------------------------------------------------

  void Advance() { cur_ = lex_.Lex(cur_.end); }
  Token Peek() const { return lex_.Lex(cur_.end); }

  Status ErrorAt(size_t offset, const std::string& what) const {
    return InvalidArgumentError("XQuery syntax error at offset " +
                                std::to_string(offset) + ": " + what);
  }

  Status Error(const std::string& what) const {
    if (cur_.kind == TokenKind::kError) {
      return ErrorAt(cur_.begin, cur_.error);
    }
    return ErrorAt(cur_.begin, what);
  }

  Status Expect(TokenKind kind) {
    if (cur_.kind != kind) {
      return Error("expected " + std::string(TokenKindName(kind)) +
                   " but found " + std::string(TokenKindName(cur_.kind)));
    }
    Advance();
    return OkStatus();
  }

  bool AtKeyword(std::string_view keyword) const {
    return cur_.kind == TokenKind::kName && cur_.text == keyword;
  }

  Status ExpectKeyword(std::string_view keyword) {
    if (!AtKeyword(keyword)) {
      return Error("expected '" + std::string(keyword) + "' but found " +
                   std::string(TokenKindName(cur_.kind)));
    }
    Advance();
    return OkStatus();
  }

  NodePtr Make(ExprKind kind, size_t offset) {
    auto node = std::make_unique<AstNode>(kind);
    node->offset = offset;
    return node;
  }

  // --- grammar -------------------------------------------------------------

  // Expr := ExprSingle ("," ExprSingle)*
  StatusOr<NodePtr> ParseExpr() {
    size_t offset = cur_.begin;
    MHX_ASSIGN_OR_RETURN(NodePtr first, ParseExprSingle());
    if (cur_.kind != TokenKind::kComma) return first;
    NodePtr seq = Make(ExprKind::kSequence, offset);
    seq->children.push_back(std::move(first));
    while (cur_.kind == TokenKind::kComma) {
      Advance();
      MHX_ASSIGN_OR_RETURN(NodePtr next, ParseExprSingle());
      seq->children.push_back(std::move(next));
    }
    return seq;
  }

  // Every nesting construct (parentheses, predicates, enclosed expressions,
  // FLWOR bodies) re-enters through here, so one guard bounds them all.
  StatusOr<NodePtr> ParseExprSingle() {
    if (depth_ >= kMaxParseDepth) {
      return Error("expression nested deeper than " +
                   std::to_string(kMaxParseDepth));
    }
    ++depth_;
    auto result = ParseExprSingleImpl();
    --depth_;
    return result;
  }

  StatusOr<NodePtr> ParseExprSingleImpl() {
    if (cur_.kind == TokenKind::kName) {
      // FLWOR keywords are context-sensitive; they head an expression only
      // when the right token follows.
      TokenKind next = Peek().kind;
      if ((cur_.text == "for" || cur_.text == "let") &&
          next == TokenKind::kVariable) {
        return ParseFlwor(cur_.text == "let");
      }
      if ((cur_.text == "some" || cur_.text == "every") &&
          next == TokenKind::kVariable) {
        return ParseQuantified();
      }
      if (cur_.text == "if" && next == TokenKind::kLParen) {
        return ParseIf();
      }
    }
    return ParseOr();
  }

  // for/let with one or more comma-separated bindings, desugared to nested
  // single-binding nodes.
  StatusOr<NodePtr> ParseFlwor(bool is_let) {
    Advance();  // 'for' / 'let'
    return ParseFlworBinding(is_let);
  }

  StatusOr<NodePtr> ParseFlworBinding(bool is_let) {
    size_t offset = cur_.begin;
    if (cur_.kind != TokenKind::kVariable) {
      return Error("expected a variable binding");
    }
    std::string var = cur_.text;
    Advance();
    if (is_let) {
      MHX_RETURN_IF_ERROR(Expect(TokenKind::kAssign));
    } else {
      MHX_RETURN_IF_ERROR(ExpectKeyword("in"));
    }
    MHX_ASSIGN_OR_RETURN(NodePtr value, ParseExprSingle());
    NodePtr body;
    if (cur_.kind == TokenKind::kComma &&
        Peek().kind == TokenKind::kVariable) {
      Advance();
      MHX_ASSIGN_OR_RETURN(body, ParseFlworBinding(is_let));
    } else {
      MHX_RETURN_IF_ERROR(ExpectKeyword("return"));
      MHX_ASSIGN_OR_RETURN(body, ParseExprSingle());
    }
    NodePtr node = Make(is_let ? ExprKind::kLet : ExprKind::kFor, offset);
    node->name = std::move(var);
    node->children.push_back(std::move(value));
    node->children.push_back(std::move(body));
    return node;
  }

  StatusOr<NodePtr> ParseQuantified() {
    size_t offset = cur_.begin;
    bool every = cur_.text == "every";
    Advance();
    if (cur_.kind != TokenKind::kVariable) {
      return Error("expected a variable binding");
    }
    std::string var = cur_.text;
    Advance();
    MHX_RETURN_IF_ERROR(ExpectKeyword("in"));
    MHX_ASSIGN_OR_RETURN(NodePtr seq, ParseExprSingle());
    MHX_RETURN_IF_ERROR(ExpectKeyword("satisfies"));
    MHX_ASSIGN_OR_RETURN(NodePtr body, ParseExprSingle());
    NodePtr node = Make(ExprKind::kQuantified, offset);
    node->name = std::move(var);
    node->every = every;
    node->children.push_back(std::move(seq));
    node->children.push_back(std::move(body));
    return node;
  }

  StatusOr<NodePtr> ParseIf() {
    size_t offset = cur_.begin;
    Advance();  // 'if'
    MHX_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    MHX_ASSIGN_OR_RETURN(NodePtr cond, ParseExpr());
    MHX_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    MHX_RETURN_IF_ERROR(ExpectKeyword("then"));
    MHX_ASSIGN_OR_RETURN(NodePtr then_branch, ParseExprSingle());
    MHX_RETURN_IF_ERROR(ExpectKeyword("else"));
    MHX_ASSIGN_OR_RETURN(NodePtr else_branch, ParseExprSingle());
    NodePtr node = Make(ExprKind::kIf, offset);
    node->children.push_back(std::move(cond));
    node->children.push_back(std::move(then_branch));
    node->children.push_back(std::move(else_branch));
    return node;
  }

  StatusOr<NodePtr> ParseOr() {
    size_t offset = cur_.begin;
    MHX_ASSIGN_OR_RETURN(NodePtr first, ParseAnd());
    if (!AtKeyword("or")) return first;
    NodePtr node = Make(ExprKind::kOr, offset);
    node->children.push_back(std::move(first));
    while (AtKeyword("or")) {
      Advance();
      MHX_ASSIGN_OR_RETURN(NodePtr next, ParseAnd());
      node->children.push_back(std::move(next));
    }
    return node;
  }

  StatusOr<NodePtr> ParseAnd() {
    size_t offset = cur_.begin;
    MHX_ASSIGN_OR_RETURN(NodePtr first, ParseCompare());
    if (!AtKeyword("and")) return first;
    NodePtr node = Make(ExprKind::kAnd, offset);
    node->children.push_back(std::move(first));
    while (AtKeyword("and")) {
      Advance();
      MHX_ASSIGN_OR_RETURN(NodePtr next, ParseCompare());
      node->children.push_back(std::move(next));
    }
    return node;
  }

  StatusOr<NodePtr> ParseCompare() {
    size_t offset = cur_.begin;
    MHX_ASSIGN_OR_RETURN(NodePtr lhs, ParseAdditive());
    CompareOp op;
    switch (cur_.kind) {
      case TokenKind::kEq:
        op = CompareOp::kEq;
        break;
      case TokenKind::kNe:
        op = CompareOp::kNe;
        break;
      case TokenKind::kLt:
        op = CompareOp::kLt;
        break;
      case TokenKind::kLe:
        op = CompareOp::kLe;
        break;
      case TokenKind::kGt:
        op = CompareOp::kGt;
        break;
      case TokenKind::kGe:
        op = CompareOp::kGe;
        break;
      default:
        return lhs;
    }
    Advance();
    MHX_ASSIGN_OR_RETURN(NodePtr rhs, ParseAdditive());
    NodePtr node = Make(ExprKind::kCompare, offset);
    node->compare_op = op;
    node->children.push_back(std::move(lhs));
    node->children.push_back(std::move(rhs));
    return node;
  }

  StatusOr<NodePtr> ParseAdditive() {
    return ParseArithChain(&Parser::ParseMultiplicative, /*additive=*/true);
  }

  StatusOr<NodePtr> ParseMultiplicative() {
    return ParseArithChain(&Parser::ParseUnary, /*additive=*/false);
  }

  // Left-associative chain of the precedence level's arithmetic operators
  // (+/- when additive, * otherwise) over `operand`.
  StatusOr<NodePtr> ParseArithChain(StatusOr<NodePtr> (Parser::*operand)(),
                                    bool additive) {
    size_t offset = cur_.begin;
    int chain = 0;
    auto lhs = (this->*operand)();
    ArithOp op;
    while (lhs.ok() && ArithTokenOp(additive, &op)) {
      // Every operator deepens the left-leaning operand spine, so chains
      // draw from the same depth budget as any other nesting — a chain
      // inside deep parentheses cannot multiply past the cap.
      if (depth_ >= kMaxParseDepth) {
        lhs = Error("operator chain exceeds the nesting limit of " +
                    std::to_string(kMaxParseDepth));
        break;
      }
      ++depth_;
      ++chain;
      Advance();
      auto rhs = (this->*operand)();
      if (!rhs.ok()) {
        lhs = rhs.status();
        break;
      }
      NodePtr node = Make(ExprKind::kArith, offset);
      node->arith_op = op;
      node->children.push_back(std::move(lhs).value());
      node->children.push_back(std::move(rhs).value());
      lhs = std::move(node);
    }
    depth_ -= chain;
    return lhs;
  }

  bool ArithTokenOp(bool additive, ArithOp* op) const {
    if (additive && cur_.kind == TokenKind::kPlus) {
      *op = ArithOp::kAdd;
      return true;
    }
    if (additive && cur_.kind == TokenKind::kMinus) {
      *op = ArithOp::kSub;
      return true;
    }
    if (!additive && cur_.kind == TokenKind::kStar) {
      *op = ArithOp::kMul;
      return true;
    }
    return false;
  }

  StatusOr<NodePtr> ParseUnary() {
    if (cur_.kind == TokenKind::kMinus) {
      if (depth_ >= kMaxParseDepth) {
        return Error("expression nested deeper than " +
                     std::to_string(kMaxParseDepth));
      }
      size_t offset = cur_.begin;
      Advance();
      ++depth_;
      auto parsed = ParseUnary();
      --depth_;
      if (!parsed.ok()) return parsed.status();
      NodePtr operand = std::move(parsed).value();
      NodePtr zero = Make(ExprKind::kIntegerLiteral, offset);
      zero->integer_value = 0;
      NodePtr node = Make(ExprKind::kArith, offset);
      node->arith_op = ArithOp::kSub;
      node->children.push_back(std::move(zero));
      node->children.push_back(std::move(operand));
      return node;
    }
    return ParsePath();
  }

  static bool StartsAxisStep(const Token& token) {
    return token.kind == TokenKind::kName || token.kind == TokenKind::kStar;
  }

  bool StartsPrimary() const {
    switch (cur_.kind) {
      case TokenKind::kVariable:
      case TokenKind::kString:
      case TokenKind::kInteger:
      case TokenKind::kLParen:
      case TokenKind::kDot:
      case TokenKind::kLt:
        return true;
      case TokenKind::kName: {
        // A name followed by '(' is a function call — unless it is one of
        // the node-test calls, which belong to axis steps.
        if (Peek().kind != TokenKind::kLParen) return false;
        return cur_.text != "leaf" && cur_.text != "node";
      }
      default:
        return false;
    }
  }

  StatusOr<NodePtr> ParsePath() {
    size_t offset = cur_.begin;
    NodePtr path = Make(ExprKind::kPath, offset);
    if (cur_.kind == TokenKind::kSlash ||
        cur_.kind == TokenKind::kSlashSlash) {
      bool descendant = cur_.kind == TokenKind::kSlashSlash;
      path->absolute = true;
      Advance();
      if (!StartsAxisStep(cur_)) {
        if (descendant) return Error("expected a step after '//'");
        return path;  // bare '/': the document root
      }
      MHX_ASSIGN_OR_RETURN(
          PathStep step,
          ParseAxisStep(descendant ? xpath::Axis::kDescendant
                                   : xpath::Axis::kChild));
      path->steps.push_back(std::move(step));
    } else if (StartsPrimary()) {
      PathStep step;
      MHX_ASSIGN_OR_RETURN(step.primary, ParsePrimary());
      MHX_RETURN_IF_ERROR(ParsePredicates(&step));
      path->steps.push_back(std::move(step));
    } else if (StartsAxisStep(cur_)) {
      MHX_ASSIGN_OR_RETURN(PathStep step, ParseAxisStep(xpath::Axis::kChild));
      path->steps.push_back(std::move(step));
    } else {
      return Error("expected an expression but found " +
                   std::string(TokenKindName(cur_.kind)));
    }
    while (cur_.kind == TokenKind::kSlash ||
           cur_.kind == TokenKind::kSlashSlash) {
      bool descendant = cur_.kind == TokenKind::kSlashSlash;
      Advance();
      MHX_ASSIGN_OR_RETURN(
          PathStep step,
          ParseAxisStep(descendant ? xpath::Axis::kDescendant
                                   : xpath::Axis::kChild));
      path->steps.push_back(std::move(step));
    }
    // A lone primary without predicates needs no path wrapper.
    if (!path->absolute && path->steps.size() == 1 &&
        path->steps[0].primary != nullptr &&
        path->steps[0].predicates.empty()) {
      return std::move(path->steps[0].primary);
    }
    return path;
  }

  StatusOr<PathStep> ParseAxisStep(xpath::Axis default_axis) {
    PathStep step;
    step.axis = default_axis;
    if (cur_.kind == TokenKind::kStar) {
      step.test = PathStep::Test::kAnyElement;
      Advance();
      MHX_RETURN_IF_ERROR(ParsePredicates(&step));
      return step;
    }
    if (cur_.kind != TokenKind::kName) {
      return Error("expected a node test");
    }
    if (Peek().kind == TokenKind::kAxisSep) {
      size_t axis_offset = cur_.begin;
      auto axis = xpath::AxisFromName(cur_.text);
      if (!axis.ok()) {
        return ErrorAt(axis_offset, axis.status().message());
      }
      step.axis = *axis;
      Advance();  // axis name
      Advance();  // '::'
      if (cur_.kind == TokenKind::kStar) {
        step.test = PathStep::Test::kAnyElement;
        Advance();
        MHX_RETURN_IF_ERROR(ParsePredicates(&step));
        return step;
      }
      if (cur_.kind != TokenKind::kName) {
        return Error("expected a node test after '::'");
      }
    }
    std::string test_name = cur_.text;
    if (Peek().kind == TokenKind::kLParen &&
        (test_name == "leaf" || test_name == "node")) {
      Advance();  // test name
      Advance();  // '('
      MHX_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      step.test = test_name == "leaf" ? PathStep::Test::kLeaf
                                      : PathStep::Test::kAnyNode;
    } else {
      step.test = PathStep::Test::kName;
      step.name = std::move(test_name);
      Advance();
    }
    MHX_RETURN_IF_ERROR(ParsePredicates(&step));
    return step;
  }

  Status ParsePredicates(PathStep* step) {
    while (cur_.kind == TokenKind::kLBracket) {
      Advance();
      MHX_ASSIGN_OR_RETURN(NodePtr pred, ParseExpr());
      MHX_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
      step->predicates.push_back(std::move(pred));
    }
    return OkStatus();
  }

  StatusOr<NodePtr> ParsePrimary() {
    size_t offset = cur_.begin;
    switch (cur_.kind) {
      case TokenKind::kString: {
        NodePtr node = Make(ExprKind::kStringLiteral, offset);
        node->string_value = cur_.text;
        Advance();
        return node;
      }
      case TokenKind::kInteger: {
        NodePtr node = Make(ExprKind::kIntegerLiteral, offset);
        node->integer_value = 0;
        constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
        for (char c : cur_.text) {
          const int64_t digit = c - '0';
          if (node->integer_value > (kMax - digit) / 10) {
            return Error("integer literal out of range");
          }
          node->integer_value = node->integer_value * 10 + digit;
        }
        Advance();
        return node;
      }
      case TokenKind::kVariable: {
        NodePtr node = Make(ExprKind::kVarRef, offset);
        node->name = cur_.text;
        Advance();
        return node;
      }
      case TokenKind::kDot: {
        NodePtr node = Make(ExprKind::kContextItem, offset);
        Advance();
        return node;
      }
      case TokenKind::kLParen: {
        Advance();
        if (cur_.kind == TokenKind::kRParen) {
          Advance();
          return Make(ExprKind::kSequence, offset);  // empty sequence "()"
        }
        MHX_ASSIGN_OR_RETURN(NodePtr inner, ParseExpr());
        MHX_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return inner;
      }
      case TokenKind::kName: {
        NodePtr node = Make(ExprKind::kFunctionCall, offset);
        node->name = cur_.text;
        Advance();
        MHX_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        if (cur_.kind != TokenKind::kRParen) {
          while (true) {
            MHX_ASSIGN_OR_RETURN(NodePtr arg, ParseExprSingle());
            node->children.push_back(std::move(arg));
            if (cur_.kind != TokenKind::kComma) break;
            Advance();
          }
        }
        MHX_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return node;
      }
      case TokenKind::kLt:
        return ParseConstructor();
      default:
        return Error("expected an expression but found " +
                     std::string(TokenKindName(cur_.kind)));
    }
  }

  // --- direct constructors (raw-source mode) -------------------------------

  StatusOr<NodePtr> ParseConstructor() {
    size_t pos = cur_.begin + 1;  // just past '<'
    MHX_ASSIGN_OR_RETURN(NodePtr node, ParseConstructorAt(&pos));
    // Resynchronise the token stream after the raw scan.
    cur_.end = pos;
    Advance();
    return node;
  }

  // `*pos` points just past the '<' of an opening tag; on success it is
  // moved past the construct's closing '>'.
  StatusOr<NodePtr> ParseConstructorAt(size_t* pos) {
    // Directly nested constructors bypass ParseExprSingle; bound them too.
    if (depth_ >= kMaxParseDepth) {
      return ErrorAt(*pos, "constructors nested deeper than " +
                               std::to_string(kMaxParseDepth));
    }
    ++depth_;
    auto result = ParseConstructorAtImpl(pos);
    --depth_;
    return result;
  }

  StatusOr<NodePtr> ParseConstructorAtImpl(size_t* pos) {
    size_t p = *pos;
    size_t name_begin = p;
    if (p < src_.size() && IsXmlNameStartChar(src_[p]) && src_[p] != ':') {
      ++p;
      while (p < src_.size() && IsXmlNameChar(src_[p])) ++p;
    }
    if (p == name_begin) {
      return ErrorAt(name_begin, "expected an element name after '<'");
    }
    NodePtr node = Make(ExprKind::kConstructor, name_begin - 1);
    node->name = std::string(src_.substr(name_begin, p - name_begin));

    // Attributes until '>' or '/>'.
    while (true) {
      while (p < src_.size() && IsSpace(src_[p])) ++p;
      if (p >= src_.size()) {
        return ErrorAt(p, "unterminated start tag <" + node->name);
      }
      if (src_[p] == '/') {
        if (p + 1 >= src_.size() || src_[p + 1] != '>') {
          return ErrorAt(p, "expected '/>' in <" + node->name);
        }
        *pos = p + 2;
        return node;  // empty element
      }
      if (src_[p] == '>') {
        ++p;
        break;
      }
      MHX_RETURN_IF_ERROR(ParseConstructorAttribute(node.get(), &p));
    }

    // Content until the matching close tag.
    std::string text;
    auto flush_text = [&]() {
      if (text.empty()) return;
      ConstructorPart part;
      part.text = std::move(text);
      text.clear();
      node->content.push_back(std::move(part));
    };
    while (true) {
      if (p >= src_.size()) {
        return ErrorAt(p, "unterminated content of <" + node->name + ">");
      }
      char c = src_[p];
      if (c == '<') {
        if (p + 1 < src_.size() && src_[p + 1] == '/') {
          size_t close_begin = p;
          p += 2;
          size_t nb = p;
          while (p < src_.size() && IsXmlNameChar(src_[p])) ++p;
          std::string close_name(src_.substr(nb, p - nb));
          while (p < src_.size() && IsSpace(src_[p])) ++p;
          if (p >= src_.size() || src_[p] != '>') {
            return ErrorAt(p, "expected '>' in closing tag");
          }
          ++p;
          if (close_name != node->name) {
            return ErrorAt(close_begin, "mismatched closing tag </" +
                                            close_name + "> for <" +
                                            node->name + ">");
          }
          flush_text();
          *pos = p;
          return node;
        }
        ++p;
        flush_text();
        ConstructorPart part;
        MHX_ASSIGN_OR_RETURN(NodePtr nested, ParseConstructorAt(&p));
        part.expr = std::move(nested);
        node->content.push_back(std::move(part));
        continue;
      }
      if (c == '{') {
        if (p + 1 < src_.size() && src_[p + 1] == '{') {
          text.push_back('{');
          p += 2;
          continue;
        }
        flush_text();
        ConstructorPart part;
        MHX_ASSIGN_OR_RETURN(part.expr, ParseEnclosedExpr(&p));
        node->content.push_back(std::move(part));
        continue;
      }
      if (c == '}') {
        if (p + 1 < src_.size() && src_[p + 1] == '}') {
          text.push_back('}');
          p += 2;
          continue;
        }
        return ErrorAt(p, "unescaped '}' in constructor content");
      }
      text.push_back(c);
      ++p;
    }
  }

  Status ParseConstructorAttribute(AstNode* node, size_t* pos) {
    size_t p = *pos;
    size_t nb = p;
    if (p < src_.size() && IsXmlNameStartChar(src_[p]) && src_[p] != ':') {
      ++p;
      while (p < src_.size() && IsXmlNameChar(src_[p])) ++p;
    }
    if (p == nb) return ErrorAt(p, "expected an attribute name");
    ConstructorAttribute attr;
    attr.name = std::string(src_.substr(nb, p - nb));
    while (p < src_.size() && IsSpace(src_[p])) ++p;
    if (p >= src_.size() || src_[p] != '=') {
      return ErrorAt(p, "expected '=' after attribute name");
    }
    ++p;
    while (p < src_.size() && IsSpace(src_[p])) ++p;
    if (p >= src_.size() || (src_[p] != '"' && src_[p] != '\'')) {
      return ErrorAt(p, "expected a quoted attribute value");
    }
    const char quote = src_[p];
    ++p;
    std::string text;
    auto flush_text = [&]() {
      if (text.empty()) return;
      ConstructorPart part;
      part.text = std::move(text);
      text.clear();
      attr.parts.push_back(std::move(part));
    };
    while (true) {
      if (p >= src_.size()) {
        return ErrorAt(p, "unterminated attribute value");
      }
      char c = src_[p];
      if (c == quote) {
        ++p;
        break;
      }
      if (c == '{') {
        if (p + 1 < src_.size() && src_[p + 1] == '{') {
          text.push_back('{');
          p += 2;
          continue;
        }
        flush_text();
        ConstructorPart part;
        MHX_ASSIGN_OR_RETURN(part.expr, ParseEnclosedExpr(&p));
        attr.parts.push_back(std::move(part));
        continue;
      }
      if (c == '}') {
        if (p + 1 < src_.size() && src_[p + 1] == '}') {
          text.push_back('}');
          p += 2;
          continue;
        }
        // Same rule as element content: a lone '}' must be doubled.
        return ErrorAt(p, "unescaped '}' in attribute value");
      }
      text.push_back(c);
      ++p;
    }
    flush_text();
    node->attributes.push_back(std::move(attr));
    *pos = p;
    return OkStatus();
  }

  // `*pos` points at the '{' of an enclosed expression; parses it in token
  // mode and moves `*pos` past the matching '}'.
  StatusOr<NodePtr> ParseEnclosedExpr(size_t* pos) {
    cur_.end = *pos + 1;  // token mode resumes just past '{'
    Advance();
    MHX_ASSIGN_OR_RETURN(NodePtr expr, ParseExpr());
    if (cur_.kind != TokenKind::kRBrace) {
      return Error("expected '}' after enclosed expression");
    }
    *pos = cur_.end;
    return expr;
  }

  static bool IsSpace(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }

  Lexer lex_;
  std::string_view src_;
  Token cur_;
  int depth_ = 0;
};

// Stamps the per-loop body classification (see AstNode) on every kFor /
// kQuantified node, so the engine never re-walks an immutable body subtree
// at evaluation time.
void StampLoopClassifications(AstNode* node) {
  VisitSubExprs(*node,
                [](AstNode& child) { StampLoopClassifications(&child); });
  if (node->kind == ExprKind::kFor || node->kind == ExprKind::kQuantified) {
    node->body_contains_analyze_string =
        ContainsAnalyzeString(*node->children[1]);
  }
}

}  // namespace

StatusOr<std::unique_ptr<Expr>> ParseQuery(std::string_view query) {
  Parser parser(query);
  MHX_ASSIGN_OR_RETURN(NodePtr root, parser.Parse());
  StampLoopClassifications(root.get());
  return std::make_unique<Expr>(std::string(query), std::move(root));
}

}  // namespace mhx::xquery
