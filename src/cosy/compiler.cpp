#include "cosy/compiler.hpp"

#include <cctype>
#include <map>
#include <optional>
#include <vector>

#include "fs/types.hpp"

namespace usk::cosy {

namespace {

// --- lexer ----------------------------------------------------------------------

enum class Tok {
  kEof,
  kInt,     // integer literal
  kIdent,
  kString,  // "..."
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kSemi,
  kComma,
  kAt,
  kAssign,  // =
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kPercent,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAndAnd,
  kOrOr,
  kPlusEq,
  kMinusEq,
  kStarEq,
  kSlashEq,
  kPercentEq,
  kKwInt,
  kKwFor,
  kKwWhile,
  kKwIf,
  kKwElse,
  kKwReturn,
  kKwBreak,
  kKwContinue,
};

struct Token {
  Tok kind = Tok::kEof;
  std::int64_t num = 0;
  std::string text;
  int line = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  Token next() {
    skip_ws();
    Token t;
    t.line = line_;
    if (pos_ >= src_.size()) {
      t.kind = Tok::kEof;
      return t;
    }
    char c = src_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::int64_t v = 0;
      while (pos_ < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
        v = v * 10 + (src_[pos_++] - '0');
      }
      t.kind = Tok::kInt;
      t.num = v;
      return t;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_')) {
        ++pos_;
      }
      t.text = std::string(src_.substr(start, pos_ - start));
      if (t.text == "int") t.kind = Tok::kKwInt;
      else if (t.text == "break") t.kind = Tok::kKwBreak;
      else if (t.text == "continue") t.kind = Tok::kKwContinue;
      else if (t.text == "for") t.kind = Tok::kKwFor;
      else if (t.text == "while") t.kind = Tok::kKwWhile;
      else if (t.text == "if") t.kind = Tok::kKwIf;
      else if (t.text == "else") t.kind = Tok::kKwElse;
      else if (t.text == "return") t.kind = Tok::kKwReturn;
      else t.kind = Tok::kIdent;
      return t;
    }
    if (c == '"') {
      ++pos_;
      std::string s;
      while (pos_ < src_.size() && src_[pos_] != '"') {
        s += src_[pos_++];
      }
      if (pos_ < src_.size()) ++pos_;  // closing quote
      t.kind = Tok::kString;
      t.text = std::move(s);
      return t;
    }
    ++pos_;
    switch (c) {
      case '(': t.kind = Tok::kLParen; return t;
      case ')': t.kind = Tok::kRParen; return t;
      case '{': t.kind = Tok::kLBrace; return t;
      case '}': t.kind = Tok::kRBrace; return t;
      case ';': t.kind = Tok::kSemi; return t;
      case ',': t.kind = Tok::kComma; return t;
      case '@': t.kind = Tok::kAt; return t;
      case '+':
        if (pos_ < src_.size() && src_[pos_] == '=') {
          ++pos_;
          t.kind = Tok::kPlusEq;
        } else {
          t.kind = Tok::kPlus;
        }
        return t;
      case '-':
        if (pos_ < src_.size() && src_[pos_] == '=') {
          ++pos_;
          t.kind = Tok::kMinusEq;
        } else {
          t.kind = Tok::kMinus;
        }
        return t;
      case '*':
        if (pos_ < src_.size() && src_[pos_] == '=') {
          ++pos_;
          t.kind = Tok::kStarEq;
        } else {
          t.kind = Tok::kStar;
        }
        return t;
      case '&':
        if (pos_ < src_.size() && src_[pos_] == '&') {
          ++pos_;
          t.kind = Tok::kAndAnd;
          return t;
        }
        break;
      case '|':
        if (pos_ < src_.size() && src_[pos_] == '|') {
          ++pos_;
          t.kind = Tok::kOrOr;
          return t;
        }
        break;
      case '/':
        if (pos_ < src_.size() && src_[pos_] == '/') {  // line comment
          while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
          return next();
        }
        if (pos_ < src_.size() && src_[pos_] == '=') {
          ++pos_;
          t.kind = Tok::kSlashEq;
          return t;
        }
        t.kind = Tok::kSlash;
        return t;
      case '%':
        if (pos_ < src_.size() && src_[pos_] == '=') {
          ++pos_;
          t.kind = Tok::kPercentEq;
          return t;
        }
        t.kind = Tok::kPercent;
        return t;
      case '=':
        if (pos_ < src_.size() && src_[pos_] == '=') {
          ++pos_;
          t.kind = Tok::kEq;
        } else {
          t.kind = Tok::kAssign;
        }
        return t;
      case '<':
        if (pos_ < src_.size() && src_[pos_] == '=') {
          ++pos_;
          t.kind = Tok::kLe;
        } else {
          t.kind = Tok::kLt;
        }
        return t;
      case '>':
        if (pos_ < src_.size() && src_[pos_] == '=') {
          ++pos_;
          t.kind = Tok::kGe;
        } else {
          t.kind = Tok::kGt;
        }
        return t;
      case '!':
        if (pos_ < src_.size() && src_[pos_] == '=') {
          ++pos_;
          t.kind = Tok::kNe;
          return t;
        }
        break;
    }
    t.kind = Tok::kEof;
    t.text = std::string(1, c);
    t.num = -1;  // marks a lex error
    return t;
  }

 private:
  void skip_ws() {
    while (pos_ < src_.size()) {
      char c = src_[pos_];
      if (c == '\n') ++line_;
      if (!std::isspace(static_cast<unsigned char>(c))) break;
      ++pos_;
    }
  }
  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

// --- parser / code generator --------------------------------------------------------

/// The compound-callable syscall with table name `name`.
std::optional<uk::Sys> syscall_named(const std::string& name) {
  for (std::size_t nr = 0; nr < static_cast<std::size_t>(uk::Sys::kMaxSys);
       ++nr) {
    const uk::SysSig& sig = uk::sys_sig(static_cast<uk::Sys>(nr));
    if (sig.nestable && name == sig.name) return static_cast<uk::Sys>(nr);
  }
  return std::nullopt;
}

class Compiler {
 public:
  explicit Compiler(std::string_view src) : lex_(src) { advance(); }

  CompileResult run() {
    while (cur_.kind != Tok::kEof && !failed_) {
      statement();
    }
    CompileResult res;
    if (failed_) {
      res.ok = false;
      res.error = error_;
      return res;
    }
    // Patch returns to the kEnd op.
    int end_index = b_.here();
    for (int j : return_jumps_) b_.patch_target(j, end_index);
    res.compound = b_.finish();
    res.ok = true;
    res.locals_used = next_local_;
    return res;
  }

 private:
  // ---- utilities ----
  void advance() { cur_ = lex_.next(); }

  bool expect(Tok k, const char* what) {
    if (cur_.kind != k) {
      fail(std::string("expected ") + what);
      return false;
    }
    advance();
    return true;
  }

  void fail(std::string msg) {
    if (!failed_) {
      failed_ = true;
      error_ = "line " + std::to_string(cur_.line) + ": " + std::move(msg);
    }
  }

  int alloc_var(const std::string& name) {
    if (vars_.contains(name)) {
      fail("redeclaration of '" + name + "'");
      return 0;
    }
    if (next_local_ >= kReturnLocal) {
      fail("too many locals");
      return 0;
    }
    vars_[name] = next_local_;
    return next_local_++;
  }

  int temp() {
    int t = next_local_ + temp_depth_++;
    if (t >= kReturnLocal) {
      fail("expression too complex (out of temporaries)");
      return 0;
    }
    return t;
  }

  /// Predefined flag constants.
  std::optional<std::int64_t> builtin_const(const std::string& name) {
    if (name == "O_RDONLY") return fs::kORdOnly;
    if (name == "O_WRONLY") return fs::kOWrOnly;
    if (name == "O_RDWR") return fs::kORdWr;
    if (name == "O_CREAT") return fs::kOCreat;
    if (name == "O_TRUNC") return fs::kOTrunc;
    if (name == "O_APPEND") return fs::kOAppend;
    if (name == "SEEK_SET") return fs::kSeekSet;
    if (name == "SEEK_CUR") return fs::kSeekCur;
    if (name == "SEEK_END") return fs::kSeekEnd;
    return std::nullopt;
  }

  // ---- expressions ----
  /// factor := INT | STRING | IDENT | call | '(' expr ')' | '@' factor | '-' factor
  Arg factor() {
    switch (cur_.kind) {
      case Tok::kInt: {
        std::int64_t v = cur_.num;
        advance();
        return imm(v);
      }
      case Tok::kString: {
        Arg a = b_.str(cur_.text);
        advance();
        return a;
      }
      case Tok::kMinus: {
        advance();
        Arg a = factor();
        if (a.kind == ArgKind::kImm) return imm(-a.a);
        int t = temp();
        b_.arith(t, ArithOp::kSub, imm(0), a);
        return local(t);
      }
      case Tok::kAt: {
        advance();
        Arg off = factor();
        if (off.kind == ArgKind::kImm) {
          return Arg{ArgKind::kShared, off.a, 0};
        }
        return off;  // dynamic shared offset: executor evaluates it
      }
      case Tok::kLParen: {
        advance();
        Arg a = expr();
        expect(Tok::kRParen, "')'");
        return a;
      }
      case Tok::kIdent: {
        std::string name = cur_.text;
        advance();
        if (cur_.kind == Tok::kLParen) {
          return call(name);
        }
        if (auto c = builtin_const(name)) return imm(*c);
        auto it = vars_.find(name);
        if (it == vars_.end()) {
          fail("use of undeclared variable '" + name + "'");
          return imm(0);
        }
        return local(it->second);
      }
      default:
        fail("expected expression");
        advance();
        return imm(0);
    }
  }

  Arg term() {
    Arg lhs = factor();
    while (!failed_ && (cur_.kind == Tok::kStar || cur_.kind == Tok::kSlash ||
                        cur_.kind == Tok::kPercent)) {
      ArithOp op = cur_.kind == Tok::kStar    ? ArithOp::kMul
                   : cur_.kind == Tok::kSlash ? ArithOp::kDiv
                                              : ArithOp::kMod;
      advance();
      Arg rhs = factor();
      lhs = binop(op, lhs, rhs);
    }
    return lhs;
  }

  Arg expr() {
    Arg lhs = term();
    while (!failed_ && (cur_.kind == Tok::kPlus || cur_.kind == Tok::kMinus)) {
      ArithOp op = cur_.kind == Tok::kPlus ? ArithOp::kAdd : ArithOp::kSub;
      advance();
      Arg rhs = term();
      lhs = binop(op, lhs, rhs);
    }
    return lhs;
  }

  Arg binop(ArithOp op, Arg lhs, Arg rhs) {
    if (lhs.kind == ArgKind::kStr || rhs.kind == ArgKind::kStr) {
      fail("string used in arithmetic");
      return imm(0);
    }
    // Constant folding.
    if (lhs.kind == ArgKind::kImm && rhs.kind == ArgKind::kImm) {
      switch (op) {
        case ArithOp::kAdd: return imm(lhs.a + rhs.a);
        case ArithOp::kSub: return imm(lhs.a - rhs.a);
        case ArithOp::kMul: return imm(lhs.a * rhs.a);
        case ArithOp::kDiv:
          if (rhs.a == 0) {
            fail("division by constant zero");
            return imm(0);
          }
          return imm(lhs.a / rhs.a);
        case ArithOp::kMod:
          if (rhs.a == 0) {
            fail("modulo by constant zero");
            return imm(0);
          }
          return imm(lhs.a % rhs.a);
        default:
          break;
      }
    }
    int t = temp();
    b_.arith(t, op, lhs, rhs);
    return local(t);
  }

  /// rel := expr (relop expr)?  -> Arg holding 0/1 (or the raw expr)
  Arg rel() {
    Arg lhs = expr();
    ArithOp op;
    switch (cur_.kind) {
      case Tok::kLt: op = ArithOp::kLt; break;
      case Tok::kLe: op = ArithOp::kLe; break;
      case Tok::kGt: op = ArithOp::kGt; break;
      case Tok::kGe: op = ArithOp::kGe; break;
      case Tok::kEq: op = ArithOp::kEq; break;
      case Tok::kNe: op = ArithOp::kNe; break;
      default:
        return lhs;  // truthiness of the expression itself
    }
    advance();
    Arg rhs = expr();
    int t = temp();
    b_.arith(t, op, lhs, rhs);
    return local(t);
  }

  /// and_expr := rel ('&&' rel)*  with C short-circuit evaluation.
  Arg and_expr() {
    Arg lhs = rel();
    if (cur_.kind != Tok::kAndAnd) return lhs;
    int t = temp();
    b_.arith(t, ArithOp::kNe, lhs, imm(0));  // normalize to 0/1
    std::vector<int> shortcuts;
    while (cur_.kind == Tok::kAndAnd) {
      advance();
      shortcuts.push_back(b_.jz(local(t), 0));  // already false: skip rest
      Arg rhs = rel();
      b_.arith(t, ArithOp::kNe, rhs, imm(0));
    }
    for (int j : shortcuts) b_.patch_target(j, b_.here());
    return local(t);
  }

  /// cond := and_expr ('||' and_expr)*  -- && binds tighter, as in C.
  Arg cond() {
    Arg lhs = and_expr();
    if (cur_.kind != Tok::kOrOr) return lhs;
    int t = temp();
    b_.arith(t, ArithOp::kNe, lhs, imm(0));
    std::vector<int> shortcuts;
    while (cur_.kind == Tok::kOrOr) {
      advance();
      shortcuts.push_back(b_.jnz(local(t), 0));  // already true: skip rest
      Arg rhs = and_expr();
      b_.arith(t, ArithOp::kNe, rhs, imm(0));
    }
    for (int j : shortcuts) b_.patch_target(j, b_.here());
    return local(t);
  }

  /// call := NAME '(' args ')' ; returns the result Arg (a local).
  Arg call(const std::string& name) {
    expect(Tok::kLParen, "'('");
    std::vector<Arg> args;
    if (cur_.kind != Tok::kRParen) {
      args.push_back(expr());
      while (cur_.kind == Tok::kComma) {
        advance();
        args.push_back(expr());
      }
    }
    expect(Tok::kRParen, "')'");
    if (failed_) return imm(0);

    int t = temp();
    if (name == "callf") {
      if (args.empty() || args[0].kind != ArgKind::kImm) {
        fail("callf needs a constant function id first");
        return imm(0);
      }
      int fid = static_cast<int>(args[0].a);
      b_.call_func(fid, std::vector<Arg>(args.begin() + 1, args.end()), t);
      return local(t);
    }
    // Every other name is a syscall: any nestable table entry, with the
    // arguments its signature lists (open and mkdir may omit the mode).
    const std::optional<uk::Sys> nr = syscall_named(name);
    if (!nr) {
      fail("unknown function '" + name + "'");
      return imm(0);
    }
    if (name == "open" && args.size() == 2) args.push_back(imm(0644));
    if (name == "mkdir" && args.size() == 1) args.push_back(imm(0755));
    const std::size_t n = uk::sys_sig(*nr).nargs;
    if (args.size() != n) {
      fail("'" + name + "' expects " + std::to_string(n) + " arguments");
      return imm(0);
    }
    b_.sys(*nr, args, t);
    return local(t);
  }

  // ---- statements ----
  void block() {
    if (!expect(Tok::kLBrace, "'{'")) return;
    while (cur_.kind != Tok::kRBrace && cur_.kind != Tok::kEof && !failed_) {
      statement();
    }
    expect(Tok::kRBrace, "'}'");
  }

  /// simple := 'int' IDENT '=' expr | IDENT '=' expr | call
  void simple() {
    temp_depth_ = 0;
    if (cur_.kind == Tok::kKwInt) {
      advance();
      if (cur_.kind != Tok::kIdent) {
        fail("expected identifier after 'int'");
        return;
      }
      std::string name = cur_.text;
      advance();
      int slot = alloc_var(name);
      if (!expect(Tok::kAssign, "'=' (initializer required)")) return;
      Arg v = expr();
      b_.set_local(slot, v);
      return;
    }
    if (cur_.kind == Tok::kIdent) {
      std::string name = cur_.text;
      advance();
      if (cur_.kind == Tok::kLParen) {
        call(name);  // expression statement
        return;
      }
      auto it = vars_.find(name);
      if (it == vars_.end()) {
        fail("assignment to undeclared variable '" + name + "'");
        return;
      }
      // Compound assignment: x op= e  ==  x = x op e.
      ArithOp aop;
      switch (cur_.kind) {
        case Tok::kPlusEq: aop = ArithOp::kAdd; break;
        case Tok::kMinusEq: aop = ArithOp::kSub; break;
        case Tok::kStarEq: aop = ArithOp::kMul; break;
        case Tok::kSlashEq: aop = ArithOp::kDiv; break;
        case Tok::kPercentEq: aop = ArithOp::kMod; break;
        default: {
          if (!expect(Tok::kAssign, "'='")) return;
          Arg v = expr();
          b_.set_local(it->second, v);
          return;
        }
      }
      advance();
      Arg v = expr();
      b_.arith(it->second, aop, local(it->second), v);
      return;
    }
    fail("expected statement");
  }

  void statement() {
    temp_depth_ = 0;
    switch (cur_.kind) {
      case Tok::kKwBreak: {
        advance();
        expect(Tok::kSemi, "';'");
        if (loops_.empty()) {
          fail("'break' outside of a loop");
          return;
        }
        loops_.back().breaks.push_back(b_.jmp(0));
        return;
      }
      case Tok::kKwContinue: {
        advance();
        expect(Tok::kSemi, "';'");
        if (loops_.empty()) {
          fail("'continue' outside of a loop");
          return;
        }
        loops_.back().continues.push_back(b_.jmp(0));
        return;
      }
      case Tok::kKwReturn: {
        advance();
        Arg v = expr();
        b_.set_local(kReturnLocal, v);
        return_jumps_.push_back(b_.jmp(0));  // patched to kEnd
        expect(Tok::kSemi, "';'");
        return;
      }
      case Tok::kKwIf: {
        advance();
        expect(Tok::kLParen, "'('");
        Arg cnd = cond();
        expect(Tok::kRParen, "')'");
        int jfalse = b_.jz(cnd, 0);
        block();
        if (cur_.kind == Tok::kKwElse) {
          advance();
          int jend = b_.jmp(0);
          b_.patch_target(jfalse, b_.here());
          block();
          b_.patch_target(jend, b_.here());
        } else {
          b_.patch_target(jfalse, b_.here());
        }
        return;
      }
      case Tok::kKwWhile: {
        advance();
        expect(Tok::kLParen, "'('");
        int start = b_.here();
        Arg cnd = cond();
        expect(Tok::kRParen, "')'");
        int jfalse = b_.jz(cnd, 0);
        loops_.push_back(LoopCtx{});
        block();
        LoopCtx ctx = loops_.back();
        loops_.pop_back();
        for (int j : ctx.continues) b_.patch_target(j, start);
        b_.jmp(start);  // back-edge
        b_.patch_target(jfalse, b_.here());
        for (int j : ctx.breaks) b_.patch_target(j, b_.here());
        return;
      }
      case Tok::kKwFor: {
        advance();
        expect(Tok::kLParen, "'('");
        simple();
        expect(Tok::kSemi, "';'");
        int start = b_.here();
        temp_depth_ = 0;
        Arg cnd = cond();
        expect(Tok::kSemi, "';'");
        int jfalse = b_.jz(cnd, 0);
        // The step executes after the body but the source is parsed now
        // (one-pass lexer): compile it in place, then relocate its ops to
        // after the body. Steps are 'simple' statements, so the relocated
        // ops contain no jumps and only reference locals.
        std::size_t step_begin = ops_count();
        simple();
        std::vector<OpRecord> step_ops = b_.take_ops_from(step_begin);
        expect(Tok::kRParen, "')'");
        loops_.push_back(LoopCtx{});
        block();
        LoopCtx ctx = loops_.back();
        loops_.pop_back();
        int step_at = b_.here();
        for (int j : ctx.continues) b_.patch_target(j, step_at);
        b_.append_ops(step_ops);
        b_.jmp(start);  // back-edge
        b_.patch_target(jfalse, b_.here());
        for (int j : ctx.breaks) b_.patch_target(j, b_.here());
        return;
      }
      default:
        simple();
        expect(Tok::kSemi, "';'");
        return;
    }
  }

  std::size_t ops_count() { return static_cast<std::size_t>(b_.here()); }

  struct LoopCtx {
    std::vector<int> breaks;     // jumps patched to the loop's end
    std::vector<int> continues;  // jumps patched to the continue point
  };

  Lexer lex_;
  Token cur_;
  CompoundBuilder b_;
  std::map<std::string, int> vars_;
  int next_local_ = 0;
  int temp_depth_ = 0;
  std::vector<int> return_jumps_;
  std::vector<LoopCtx> loops_;
  bool failed_ = false;
  std::string error_;
};

}  // namespace

CompileResult compile(std::string_view source) {
  Compiler c(source);
  return c.run();
}

std::vector<MarkedRegion> compile_marked(std::string_view source) {
  constexpr std::string_view kStart = "COSY_START";
  constexpr std::string_view kEnd = "COSY_END";
  std::vector<MarkedRegion> regions;
  std::size_t pos = 0;
  while (pos < source.size()) {
    std::size_t start = source.find(kStart, pos);
    if (start == std::string_view::npos) break;
    std::size_t body_begin = start + kStart.size();
    // The marker may sit inside a // comment: skip to the end of its line
    // so the comment text is not parsed as code.
    std::size_t line_end = source.find('\n', body_begin);
    if (line_end != std::string_view::npos) body_begin = line_end + 1;

    std::size_t end = source.find(kEnd, body_begin);
    MarkedRegion region;
    region.begin_offset = body_begin;
    if (end == std::string_view::npos) {
      region.end_offset = source.size();
      region.result.ok = false;
      region.result.error = "COSY_START without matching COSY_END";
      regions.push_back(std::move(region));
      break;
    }
    std::size_t nested = source.find(kStart, body_begin);
    if (nested != std::string_view::npos && nested < end) {
      region.end_offset = end;
      region.result.ok = false;
      region.result.error = "nested COSY_START";
      regions.push_back(std::move(region));
      pos = end + kEnd.size();
      continue;
    }
    // Strip a trailing comment opener ("// COSY_END" or "/* COSY_END */"
    // leaves "//" or "/*" dangling in the region): drop everything after
    // the last newline if it only opens a comment.
    std::string_view body = source.substr(body_begin, end - body_begin);
    for (std::string_view opener : {"//", "/*"}) {
      std::size_t tail = body.rfind(opener);
      if (tail != std::string_view::npos &&
          body.find('\n', tail) == std::string_view::npos) {
        body = body.substr(0, tail);
      }
    }
    region.end_offset = end;
    region.result = compile(body);
    regions.push_back(std::move(region));
    pos = end + kEnd.size();
  }
  return regions;
}

}  // namespace usk::cosy
