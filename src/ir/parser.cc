#include "src/ir/parser.h"

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <vector>

#include "src/ir/builder.h"

namespace esd::ir {
namespace {

// Character classes of the C locale, which the grammar is written in.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsIdentChar(char c) {
  return IsDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == '.';
}

// Cuts `line` at the first ';' outside a string literal. Inside a literal a
// backslash escapes the next character, as Cursor::QuotedString reads it.
std::string_view StripComment(std::string_view line) {
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    if (quoted) {
      if (line[i] == '\\') {
        ++i;
      } else if (line[i] == '"') {
        quoted = false;
      }
    } else if (line[i] == '"') {
      quoted = true;
    } else if (line[i] == ';') {
      return line.substr(0, i);
    }
  }
  return line;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && IsSpace(s.front())) {
    s.remove_prefix(1);
  }
  while (!s.empty() && IsSpace(s.back())) {
    s.remove_suffix(1);
  }
  return s;
}

// A trimmed, comment-stripped, non-empty line: a view into the text given
// to ParseModule, and its 1-based number there.
struct Line {
  int number = 0;
  std::string_view text;
};

// Yields the lines of a text one at a time, skipping blank and comment-only
// ones. A copy of a reader resumes where the original stood.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : rest_(text) {}

  bool Next(Line* line) {
    while (!done_) {
      const size_t end = rest_.find('\n');
      const std::string_view raw = rest_.substr(0, end);
      if (end == std::string_view::npos) {
        done_ = true;
      } else {
        rest_.remove_prefix(end + 1);
      }
      ++number_;
      if (std::string_view text = Trim(StripComment(raw)); !text.empty()) {
        *line = Line{number_, text};
        return true;
      }
    }
    return false;
  }

 private:
  std::string_view rest_;
  int number_ = 0;
  bool done_ = false;
};

// A cursor over one line's characters with small parsing helpers. The
// tokens it returns are views into the line.
class Cursor {
 public:
  explicit Cursor(std::string_view s) : s_(s) {}

  void SkipSpace() {
    while (pos_ < s_.size() && IsSpace(s_[pos_])) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= s_.size();
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    SkipSpace();
    if (s_.substr(pos_, word.size()) == word) {
      size_t after = pos_ + word.size();
      if (after == s_.size() || !IsIdentChar(s_[after])) {
        pos_ = after;
        return true;
      }
    }
    return false;
  }

  // Reads an identifier ([A-Za-z0-9_.]+); empty if there is none.
  std::string_view Ident() {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < s_.size() && IsIdentChar(s_[pos_])) {
      ++pos_;
    }
    return s_.substr(start, pos_ - start);
  }

  // Reads an optionally signed run of decimal digits; empty, consuming
  // nothing, if no digit follows.
  std::string_view IntToken() {
    SkipSpace();
    const size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    const size_t digits = pos_;
    while (pos_ < s_.size() && IsDigit(s_[pos_])) {
      ++pos_;
    }
    if (pos_ == digits) {
      pos_ = start;
      return {};
    }
    return s_.substr(start, pos_ - start);
  }

  std::optional<std::string> QuotedString() {
    SkipSpace();
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return std::nullopt;
    }
    ++pos_;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char e = s_[pos_++];
        switch (e) {
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case '0':
            out.push_back('\0');
            break;
          default:
            out.push_back(e);
            break;
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= s_.size()) {
      return std::nullopt;
    }
    ++pos_;  // closing quote
    return out;
  }

 private:
  std::string_view s_;
  size_t pos_ = 0;
};

// The 64-bit pattern of a token read by Cursor::IntToken. Its value must lie
// in [-2^63, 2^64 - 1]: the printer writes 64-bit immediates as unsigned
// decimal, so values >= 2^63 must round-trip, and a negative value is kept
// in two's complement. Returns nullopt outside that range.
std::optional<uint64_t> DecodeInt(std::string_view token) {
  const bool negative = token.front() == '-';
  if (negative || token.front() == '+') {
    token.remove_prefix(1);
  }
  uint64_t magnitude = 0;
  if (std::from_chars(token.data(), token.data() + token.size(), magnitude).ec !=
          std::errc() ||
      (negative && magnitude > uint64_t{1} << 63)) {
    return std::nullopt;
  }
  return negative ? 0 - magnitude : magnitude;
}

std::string OutOfRange(std::string_view what, std::string_view token) {
  return std::string(what) + " " + std::string(token) + " out of range";
}

// Opcode of a binary instruction's mnemonic.
std::optional<Opcode> BinaryOpcode(std::string_view word) {
  for (auto op = static_cast<uint8_t>(Opcode::kAdd);
       op <= static_cast<uint8_t>(Opcode::kAShr); ++op) {
    if (OpcodeName(static_cast<Opcode>(op)) == word) {
      return static_cast<Opcode>(op);
    }
  }
  return std::nullopt;
}

std::optional<CmpPred> ParsePred(std::string_view word) {
  for (auto p = static_cast<uint8_t>(CmpPred::kEq); p <= static_cast<uint8_t>(CmpPred::kSge);
       ++p) {
    if (CmpPredName(static_cast<CmpPred>(p)) == word) {
      return static_cast<CmpPred>(p);
    }
  }
  return std::nullopt;
}

class Parser {
 public:
  explicit Parser(Module* module) : reader_({}), module_(module), builder_(module) {}

  // Parses `text` into the module, after whatever earlier Runs added. Line
  // numbers in errors count from the start of `text`.
  ParseResult Run(std::string_view text) {
    reader_ = LineReader(text);
    Line line;
    while (reader_.Next(&line)) {
      Cursor c(line.text);
      bool ok = false;
      if (c.ConsumeWord("global")) {
        ok = ParseGlobal(c);
      } else if (c.ConsumeWord("extern")) {
        ok = ParseExtern(c);
      } else if (c.ConsumeWord("func")) {
        ok = ParseFunction(c, &line);
      } else {
        error_ = "expected 'global', 'extern', or 'func'";
      }
      if (!ok) {
        return ParseResult{false,
                           "line " + std::to_string(line.number) + ": " + error_};
      }
    }
    return ParseResult{true, ""};
  }

 private:
  bool ParseType(Cursor& c, Type* out) {
    std::string_view word = c.Ident();
    if (word.empty() || !ParseTypeName(word, out)) {
      error_ = "expected a type";
      return false;
    }
    return true;
  }

  // Reads a size or a scale: a decimal integer in [1, 2^32 - 1]. `what`
  // names it in the error.
  bool ParseCount(Cursor& c, std::string_view what, uint32_t* out) {
    std::string_view token = c.IntToken();
    if (token.empty() || token.front() == '-') {
      error_ = "bad " + std::string(what);
      return false;
    }
    std::optional<uint64_t> v = DecodeInt(token);
    if (!v || *v > std::numeric_limits<uint32_t>::max()) {
      error_ = OutOfRange(what, token);
      return false;
    }
    if (*v == 0) {
      error_ = "bad " + std::string(what);
      return false;
    }
    *out = static_cast<uint32_t>(*v);
    return true;
  }

  bool ParseGlobal(Cursor& c) {
    if (!c.Consume('$')) {
      error_ = "expected '$name' after 'global'";
      return false;
    }
    std::string_view name = c.Ident();
    if (name.empty() || !c.Consume('=')) {
      error_ = "malformed global";
      return false;
    }
    if (c.ConsumeWord("zero")) {
      uint32_t size = 0;
      if (!ParseCount(c, "global size", &size)) {
        return false;
      }
      builder_.AddGlobal(name, size);
      return true;
    }
    if (c.ConsumeWord("str")) {
      auto text = c.QuotedString();
      if (!text) {
        error_ = "bad string literal";
        return false;
      }
      builder_.AddStringGlobal(name, *text);
      return true;
    }
    if (c.ConsumeWord("bytes")) {
      uint32_t size = 0;
      if (!ParseCount(c, "bytes size", &size)) {
        return false;
      }
      if (!c.Consume('[')) {
        error_ = "bad bytes global";
        return false;
      }
      std::vector<uint8_t> init;
      while (!c.Consume(']')) {
        std::string_view token = c.IntToken();
        std::optional<uint64_t> b =
            token.empty() ? std::nullopt : DecodeInt(token);
        if (!b || *b > 255) {
          error_ = "bad byte value";
          return false;
        }
        init.push_back(static_cast<uint8_t>(*b));
      }
      builder_.AddGlobal(name, size, std::move(init));
      return true;
    }
    error_ = "expected 'zero', 'str', or 'bytes'";
    return false;
  }

  bool ParseExtern(Cursor& c) {
    if (!c.Consume('@')) {
      error_ = "expected '@name' after 'extern'";
      return false;
    }
    std::string_view name = c.Ident();
    if (name.empty() || !c.Consume('(')) {
      error_ = "malformed extern";
      return false;
    }
    std::vector<Type> params;
    if (!c.Consume(')')) {
      do {
        Type t;
        if (!ParseType(c, &t)) {
          return false;
        }
        params.push_back(t);
      } while (c.Consume(','));
      if (!c.Consume(')')) {
        error_ = "expected ')'";
        return false;
      }
    }
    Type ret = Type::kVoid;
    if (c.Consume(':')) {
      if (!ParseType(c, &ret)) {
        return false;
      }
    }
    builder_.DeclareExternal(name, ret, std::move(params));
    return true;
  }

  // Parses the function whose header is on `*line` through its closing
  // lone '}'. On failure inside the body, points `*line` at the bad line.
  bool ParseFunction(Cursor& header, Line* line) {
    if (!header.Consume('@')) {
      error_ = "expected '@name' after 'func'";
      return false;
    }
    std::string_view name = header.Ident();
    if (name.empty() || !header.Consume('(')) {
      error_ = "malformed func header";
      return false;
    }
    std::vector<Type> params;
    std::vector<std::string_view> param_names;
    if (!header.Consume(')')) {
      do {
        if (!header.Consume('%')) {
          error_ = "expected '%param'";
          return false;
        }
        std::string_view pname = header.Ident();
        if (pname.empty() || !header.Consume(':')) {
          error_ = "malformed parameter";
          return false;
        }
        Type t;
        if (!ParseType(header, &t)) {
          return false;
        }
        params.push_back(t);
        param_names.push_back(pname);
      } while (header.Consume(','));
      if (!header.Consume(')')) {
        error_ = "expected ')'";
        return false;
      }
    }
    Type ret = Type::kVoid;
    if (header.Consume(':')) {
      if (!ParseType(header, &ret)) {
        return false;
      }
    }
    if (!header.Consume('{')) {
      error_ = "expected '{'";
      return false;
    }

    FunctionBuilder fb = builder_.BeginFunction(name, ret, params);
    regs_.clear();
    for (size_t i = 0; i < param_names.size(); ++i) {
      regs_[param_names[i]] = fb.Param(static_cast<uint32_t>(i));
    }

    // First pass, up to the closing lone '}': create blocks in order so
    // forward branches resolve. If the body begins with a label, that label
    // names the entry block.
    LineReader body = reader_;
    Line l;
    bool closed = false;
    bool first_line = true;
    while (!closed && reader_.Next(&l)) {
      if (l.text == "}") {
        closed = true;
      } else if (l.text.back() == ':') {
        std::string_view label = l.text.substr(0, l.text.size() - 1);
        if (first_line) {
          fb.RenameEntry(label);
        } else {
          fb.Block(label);
        }
      }
      first_line = false;
    }
    if (!closed) {
      error_ = "missing '}'";
      return false;
    }
    // Second pass: parse instructions into their blocks.
    while (body.Next(&l) && l.text != "}") {
      if (l.text.back() == ':') {
        fb.SetBlock(fb.Block(l.text.substr(0, l.text.size() - 1)));
        continue;
      }
      Cursor c(l.text);
      if (!ParseInstruction(c, fb)) {
        *line = l;
        return false;
      }
    }
    fb.Finish();
    return true;
  }

  // Parses one operand. Returns nullopt and sets error_ on failure.
  std::optional<Value> ParseOperand(Cursor& c, FunctionBuilder& fb) {
    if (c.Consume('%')) {
      std::string_view name = c.Ident();
      if (name.empty()) {
        error_ = "expected register name";
        return std::nullopt;
      }
      auto it = regs_.find(name);
      if (it == regs_.end()) {
        error_ = "use of undefined register %" + std::string(name);
        return std::nullopt;
      }
      return it->second;
    }
    if (c.Consume('@')) {
      std::string_view name = c.Ident();
      if (name.empty()) {
        error_ = "expected function name";
        return std::nullopt;
      }
      return fb.FuncAddr(name);
    }
    if (c.Consume('$')) {
      std::string_view name = c.Ident();
      if (name.empty()) {
        error_ = "expected global name";
        return std::nullopt;
      }
      if (!module_->FindGlobal(name)) {
        error_ = "use of undeclared global $" + std::string(name);
        return std::nullopt;
      }
      return fb.GlobalAddr(name);
    }
    if (c.ConsumeWord("null")) {
      return Value::Const(Type::kPtr, 0);
    }
    Type t;
    Cursor save = c;
    std::string_view word = c.Ident();
    if (!word.empty() && ParseTypeName(word, &t) && t != Type::kVoid) {
      std::string_view token = c.IntToken();
      if (token.empty()) {
        error_ = "expected integer literal after type";
        return std::nullopt;
      }
      std::optional<uint64_t> v = DecodeInt(token);
      if (!v) {
        error_ = OutOfRange("integer literal", token);
        return std::nullopt;
      }
      return Value::Const(t, *v);
    }
    c = save;
    error_ = "expected an operand";
    return std::nullopt;
  }

  bool ParseOperands(Cursor& c, FunctionBuilder& fb, std::vector<Value>* out,
                     char terminator) {
    if (c.Consume(terminator)) {
      return true;
    }
    do {
      auto v = ParseOperand(c, fb);
      if (!v) {
        return false;
      }
      out->push_back(*v);
    } while (c.Consume(','));
    if (!c.Consume(terminator)) {
      error_ = std::string("expected '") + terminator + "'";
      return false;
    }
    return true;
  }

  bool DefineReg(std::string_view name, Value v) {
    regs_[name] = v;
    return true;
  }

  // Checks one precondition FunctionBuilder asserts, so that bad text gets
  // an error line instead of reaching the builder.
  bool Require(bool holds, const char* error) {
    if (!holds) {
      error_ = error;
    }
    return holds;
  }

  bool ParseInstruction(Cursor& c, FunctionBuilder& fb) {
    std::string_view result_name;
    bool has_result = false;
    Cursor save = c;
    if (c.Consume('%')) {
      std::string_view name = c.Ident();
      if (!name.empty() && c.Consume('=')) {
        result_name = name;
        has_result = true;
      } else {
        c = save;
      }
    }

    const std::string_view op = c.Ident();
    if (op.empty()) {
      error_ = "expected an opcode";
      return false;
    }
    // A label may resume an open block, but not one a terminator ended.
    if (!Require(!fb.BlockTerminated(), "instruction after the block's terminator")) {
      return false;
    }

    if (std::optional<Opcode> binary = BinaryOpcode(op)) {
      auto a = ParseOperand(c, fb);
      if (!a || !c.Consume(',')) {
        return false;
      }
      auto b = ParseOperand(c, fb);
      if (!b) {
        return false;
      }
      if (a->type != b->type) {
        error_ = "binary operand type mismatch";
        return false;
      }
      return DefineReg(result_name, fb.Binary(*binary, *a, *b));
    }
    if (op == "icmp") {
      std::optional<CmpPred> pred = ParsePred(c.Ident());
      if (!pred) {
        error_ = "bad icmp predicate";
        return false;
      }
      auto a = ParseOperand(c, fb);
      if (!a || !c.Consume(',')) {
        return false;
      }
      auto b = ParseOperand(c, fb);
      if (!b || !Require(a->type == b->type, "icmp operand type mismatch")) {
        return false;
      }
      return DefineReg(result_name, fb.ICmp(*pred, *a, *b));
    }
    if (op == "not") {
      auto a = ParseOperand(c, fb);
      if (!a) {
        return false;
      }
      return DefineReg(result_name, fb.Not(*a));
    }
    if (op == "zext" || op == "sext" || op == "trunc") {
      Type to;
      if (!ParseType(c, &to) || !c.Consume(',')) {
        return false;
      }
      auto a = ParseOperand(c, fb);
      if (!a) {
        return false;
      }
      const bool trunc = op == "trunc";
      if (!Require(trunc ? BitWidth(to) <= BitWidth(a->type)
                         : BitWidth(to) >= BitWidth(a->type),
                   trunc ? "truncation widens the value"
                         : "extension narrows the value")) {
        return false;
      }
      Value v = op == "zext"   ? fb.ZExt(*a, to)
                : op == "sext" ? fb.SExt(*a, to)
                               : fb.Trunc(*a, to);
      return DefineReg(result_name, v);
    }
    if (op == "select") {
      auto cond = ParseOperand(c, fb);
      if (!cond || !c.Consume(',')) {
        return false;
      }
      auto a = ParseOperand(c, fb);
      if (!a || !c.Consume(',')) {
        return false;
      }
      auto b = ParseOperand(c, fb);
      if (!b || !Require(cond->type == Type::kI1, "select condition must be i1") ||
          !Require(a->type == b->type, "select arm type mismatch")) {
        return false;
      }
      return DefineReg(result_name, fb.Select(*cond, *a, *b));
    }
    if (op == "alloca") {
      uint32_t size = 0;
      if (!ParseCount(c, "alloca size", &size)) {
        return false;
      }
      return DefineReg(result_name, fb.Alloca(size));
    }
    if (op == "load") {
      Type t;
      if (!ParseType(c, &t) || !c.Consume(',')) {
        return false;
      }
      auto p = ParseOperand(c, fb);
      if (!p || !Require(p->type == Type::kPtr, "load address must be ptr")) {
        return false;
      }
      return DefineReg(result_name, fb.Load(t, *p));
    }
    if (op == "store") {
      auto v = ParseOperand(c, fb);
      if (!v || !c.Consume(',')) {
        return false;
      }
      auto p = ParseOperand(c, fb);
      if (!p || !Require(p->type == Type::kPtr, "store address must be ptr")) {
        return false;
      }
      fb.Store(*v, *p);
      return true;
    }
    if (op == "gep") {
      auto p = ParseOperand(c, fb);
      if (!p || !Require(p->type == Type::kPtr, "gep base must be ptr") ||
          !c.Consume(',')) {
        return false;
      }
      auto i = ParseOperand(c, fb);
      if (!i || !c.Consume(',')) {
        return false;
      }
      uint32_t scale = 0;
      if (!ParseCount(c, "gep scale", &scale)) {
        return false;
      }
      return DefineReg(result_name, fb.Gep(*p, *i, scale));
    }
    if (op == "br") {
      std::string_view label = c.Ident();
      if (label.empty()) {
        error_ = "expected a label";
        return false;
      }
      fb.Br(fb.Block(label));
      return true;
    }
    if (op == "condbr") {
      auto cond = ParseOperand(c, fb);
      if (!cond || !Require(cond->type == Type::kI1, "condbr condition must be i1") ||
          !c.Consume(',')) {
        return false;
      }
      std::string_view l1 = c.Ident();
      if (l1.empty() || !c.Consume(',')) {
        error_ = "expected labels";
        return false;
      }
      std::string_view l2 = c.Ident();
      if (l2.empty()) {
        error_ = "expected a label";
        return false;
      }
      fb.CondBr(*cond, fb.Block(l1), fb.Block(l2));
      return true;
    }
    if (op == "call") {
      if (!c.Consume('@')) {
        error_ = "expected '@callee'";
        return false;
      }
      std::string_view callee = c.Ident();
      if (callee.empty() || !c.Consume('(')) {
        error_ = "malformed call";
        return false;
      }
      std::vector<Value> args;
      if (!ParseOperands(c, fb, &args, ')')) {
        return false;
      }
      Value v = fb.Call(callee, std::move(args));
      if (has_result) {
        if (!v.IsValid()) {
          error_ = "void call cannot define a register";
          return false;
        }
        return DefineReg(result_name, v);
      }
      return true;
    }
    if (op == "calli") {
      Type ret;
      if (!ParseType(c, &ret)) {
        return false;
      }
      auto fp = ParseOperand(c, fb);
      if (!fp || !c.Consume('(')) {
        error_ = "malformed indirect call";
        return false;
      }
      if (!Require(fp->type == Type::kPtr, "indirect callee must be ptr")) {
        return false;
      }
      std::vector<Value> args;
      if (!ParseOperands(c, fb, &args, ')')) {
        return false;
      }
      Value v = fb.CallIndirect(ret, *fp, std::move(args));
      if (has_result) {
        if (!v.IsValid()) {
          error_ = "void call cannot define a register";
          return false;
        }
        return DefineReg(result_name, v);
      }
      return true;
    }
    if (op == "ret") {
      if (c.AtEnd()) {
        fb.Ret();
      } else {
        auto v = ParseOperand(c, fb);
        if (!v) {
          return false;
        }
        fb.Ret(*v);
      }
      return true;
    }
    if (op == "unreachable") {
      fb.Unreachable();
      return true;
    }
    error_ = "unknown opcode '" + std::string(op) + "'";
    return false;
  }

  LineReader reader_;
  Module* module_;
  ModuleBuilder builder_;
  // The current function's registers by name, as views into the text.
  std::unordered_map<std::string_view, Value> regs_;
  std::string error_;
};

}  // namespace

ParseResult ParseModule(std::string_view text, Module* module) {
  return Parser(module).Run(text);
}

ParseResult ParseModule(std::string_view prelude, std::string_view text,
                        Module* module) {
  Parser parser(module);
  ParseResult r = parser.Run(prelude);
  return r.ok ? parser.Run(text) : r;
}

}  // namespace esd::ir
