#include "model.h"

#include <algorithm>
#include <utility>

namespace csce_lint {
namespace {

bool IsKeyword(const std::string& t) {
  static const std::set<std::string> kw = {
      "if",       "for",        "while",        "switch",
      "return",   "sizeof",     "alignof",      "catch",
      "throw",    "delete",     "static_cast",  "dynamic_cast",
      "const_cast", "reinterpret_cast", "decltype", "noexcept",
      "alignas",  "case",       "default",      "do",
      "else",     "goto",       "requires",     "typeid",
      "static_assert", "assert",
  };
  return kw.count(t) != 0;
}

bool IsGuardAnnotation(const std::string& t) {
  return t == "CSCE_GUARDED_BY" || t == "CSCE_PT_GUARDED_BY" ||
         t == "CSCE_NOT_GUARDED";
}

/// Names that take explicit template arguments at their call sites in
/// this codebase. Angle-skipping is restricted to these so ordinary
/// comparisons ("a < b && f(x) > c") never lex into phantom calls.
bool TemplateCallName(const std::string& t) {
  return t == "make_unique" || t == "make_shared" ||
         t == "make_unique_for_overwrite";
}

struct Scope {
  enum Kind { kNamespace, kClass, kOther } kind;
  std::string name;
};

class Parser {
 public:
  Parser(const std::string& path, std::vector<Token> toks, SourceModel* model)
      : path_(path), t_(std::move(toks)), model_(model) {}

  void Run() {
    size_t i = 0;
    decl_start_ = 0;
    while (i < t_.size()) {
      size_t next = Step(i);
      i = next > i ? next : i + 1;  // guarantee progress
    }
  }

 private:
  const std::string& Text(size_t i) const {
    static const std::string empty;
    return i < t_.size() ? t_[i].text : empty;
  }
  bool Is(size_t i, const char* s) const { return Text(i) == s; }
  bool IsIdent(size_t i) const {
    return i < t_.size() && t_[i].kind == TokKind::kIdent;
  }
  int Line(size_t i) const { return i < t_.size() ? t_[i].line : 0; }

  size_t MatchDelim(size_t i, const char* open, const char* close) const {
    int depth = 0;
    for (size_t j = i; j < t_.size(); ++j) {
      if (Is(j, open)) ++depth;
      else if (Is(j, close) && --depth == 0) return j;
    }
    return t_.size();
  }
  size_t MatchParen(size_t i) const { return MatchDelim(i, "(", ")"); }
  size_t MatchBrace(size_t i) const { return MatchDelim(i, "{", "}"); }

  /// Best-effort template-argument skip from '<'; returns the index
  /// after the matching '>' or `i` unchanged when this is clearly not a
  /// template argument list. ">>" lexes as two ">" so nesting is plain.
  size_t SkipAngles(size_t i) const {
    int depth = 0;
    size_t limit = std::min(t_.size(), i + 100);
    for (size_t j = i; j < limit; ++j) {
      if (Is(j, "<")) ++depth;
      else if (Is(j, ">")) {
        if (--depth == 0) return j + 1;
      } else if (Is(j, ";") || Is(j, "{") || Is(j, "}")) {
        break;
      }
    }
    return i;
  }

  std::string CurrentClass() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
      if (it->kind == Scope::kOther) return "";
    }
    return "";
  }

  ClassInfo* CurrentClassInfo() {
    if (stack_.empty() || stack_.back().kind != Scope::kClass) return nullptr;
    for (ClassInfo& c : model_->classes) {
      if (c.name == stack_.back().name && c.file == path_) return &c;
    }
    return nullptr;
  }

  size_t Step(size_t i) {
    const Token& tk = t_[i];
    const std::string& s = tk.text;
    if (tk.kind == TokKind::kIdent) {
      if (s == "using" || s == "typedef") return SkipToSemi(i);
      if (s == "friend" && (Is(i + 1, "class") || Is(i + 1, "struct"))) {
        return SkipToSemi(i);
      }
      if (s == "namespace") return HandleNamespace(i);
      if (s == "class" || s == "struct") return HandleClass(i);
      if (s == "enum") return HandleEnum(i);
      if (s == "template") return SkipAngles(i + 1);
      if (s == "operator") return HandleOperator(i);
      if ((s == "public" || s == "private" || s == "protected") &&
          Is(i + 1, ":")) {
        decl_start_ = i + 2;
        return i + 2;
      }
      if (!IsKeyword(s) && Is(i + 1, "(")) return HandleFunction(i, i + 1);
      return i + 1;
    }
    if (s == "{") {
      stack_.push_back({Scope::kOther, ""});
      decl_start_ = i + 1;
      return i + 1;
    }
    if (s == "}") {
      if (!stack_.empty()) stack_.pop_back();
      decl_start_ = i + 1;
      return i + 1;
    }
    if (s == ";") {
      EndMemberSpan(i);
      decl_start_ = i + 1;
      return i + 1;
    }
    return i + 1;
  }

  size_t SkipToSemi(size_t i) {
    while (i < t_.size() && !Is(i, ";")) ++i;
    decl_start_ = i + 1;
    return i + 1;
  }

  size_t HandleNamespace(size_t i) {
    size_t j = i + 1;
    while (IsIdent(j) || Is(j, "::")) ++j;
    if (Is(j, "{")) {
      stack_.push_back({Scope::kNamespace, ""});
      decl_start_ = j + 1;
      return j + 1;
    }
    return SkipToSemi(j);  // namespace alias
  }

  size_t HandleClass(size_t i) {
    size_t j = i + 1;
    // Attributes and alignas between the class-key and the name.
    for (;;) {
      if (Is(j, "[") && Is(j + 1, "[")) {
        while (j < t_.size() && !(Is(j, "]") && Is(j + 1, "]"))) ++j;
        j += 2;
      } else if (Is(j, "alignas") && Is(j + 1, "(")) {
        j = MatchParen(j + 1) + 1;
      } else {
        break;
      }
    }
    std::string name;
    if (IsIdent(j)) name = Text(j++);
    if (Is(j, "final")) ++j;
    if (Is(j, "<")) j = SkipAngles(j);  // specialization
    while (j < t_.size() && !Is(j, "{") && !Is(j, ";")) ++j;
    if (Is(j, "{")) {
      stack_.push_back({Scope::kClass, name});
      model_->classes.push_back({name, path_, false, {}});
      decl_start_ = j + 1;
      return j + 1;
    }
    decl_start_ = j + 1;  // forward declaration
    return j + 1;
  }

  size_t HandleEnum(size_t i) {
    size_t j = i + 1;
    while (j < t_.size() && !Is(j, "{") && !Is(j, ";")) ++j;
    if (Is(j, "{")) j = MatchBrace(j);
    decl_start_ = j + 1;
    return j + 1;
  }

  size_t HandleOperator(size_t i) {
    size_t j = i + 1;
    if (Is(j, "(") && Is(j + 1, ")")) j += 2;  // operator()
    while (j < t_.size() && !Is(j, "(")) ++j;
    if (j >= t_.size()) return i + 1;
    // From here an operator is an ordinary function whose name nothing
    // ever resolves to; parsing it keeps the scope stack honest.
    return HandleFunction(i, j);
  }

  /// `name_at` is the function-name token, `paren_at` its parameter
  /// list's '('.
  size_t HandleFunction(size_t name_at, size_t paren_at) {
    const size_t prefix_start = decl_start_;  // before Skip* clobbers it
    size_t close = MatchParen(paren_at);
    if (close >= t_.size()) return SkipToSemi(paren_at);
    size_t j = close + 1;
    bool is_def = false;
    for (; j < t_.size(); ++j) {
      const std::string& q = Text(j);
      if (q == "const" || q == "noexcept" || q == "override" ||
          q == "final" || q == "mutable" || q == "try" || q == "&" ||
          q == "&&") {
        if (q == "noexcept" && Is(j + 1, "(")) j = MatchParen(j + 1);
        continue;
      }
      if (IsIdent(j) && q.rfind("CSCE_", 0) == 0) {
        if (Is(j + 1, "(")) j = MatchParen(j + 1);
        continue;
      }
      if (q == "->") {  // trailing return type
        while (j < t_.size() && !Is(j, "{") && !Is(j, ";")) ++j;
        --j;
        continue;
      }
      if (q == "=") {
        Record(name_at, prefix_start);
        return SkipToSemi(j);
      }
      if (q == ";") {
        Record(name_at, prefix_start);
        decl_start_ = j + 1;
        return j + 1;
      }
      if (q == "{" || q == ":") {
        is_def = true;
        break;
      }
      // Not a function after all (macro invocation, expression, ...).
      return close + 1;
    }
    if (!is_def) return close + 1;

    // Body extent: from the qualifier break through the matching '}' of
    // the last top-level brace group. A brace group whose close is
    // followed by ',' or '{' was a constructor-initializer entry; the
    // body proper follows.
    size_t body_start = j;
    size_t k = j;
    while (k < t_.size()) {
      if (Is(k, "{")) {
        size_t bclose = MatchBrace(k);
        if (bclose >= t_.size()) {
          k = t_.size();
          break;
        }
        if (Is(bclose + 1, ",") || Is(bclose + 1, "{")) {
          k = bclose + 1;
          continue;
        }
        k = bclose + 1;
        break;
      }
      if (Is(k, ";")) break;  // safety net: no body found
      ++k;
    }

    FunctionInfo& fn = Record(name_at, prefix_start);
    fn.has_body = true;
    ScanBody(body_start, k, &fn);
    decl_start_ = k;
    return k;
  }

  FunctionInfo& Record(size_t name_at, size_t prefix_start) {
    std::string name = Text(name_at);
    std::string cls;
    if (name_at >= 2 && Is(name_at - 1, "::") && IsIdent(name_at - 2)) {
      cls = Text(name_at - 2);  // out-of-line Class::Method definition
    } else {
      cls = CurrentClass();
    }
    size_t idx = model_->Intern(cls, name, path_, Line(name_at));
    FunctionInfo& fn = model_->functions[idx];
    for (size_t p = prefix_start; p < name_at && p < t_.size(); ++p) {
      const std::string& s = Text(p);
      if (s == "CSCE_HOT_PATH") fn.hot = true;
      else if (s == "CSCE_ALLOC_OK") fn.alloc_ok = true;
      else if (s == "CSCE_WIRE_PRIMITIVE") fn.wire_primitive = true;
      else if (s == "CSCE_MAP_PRIMITIVE") fn.map_primitive = true;
    }
    if (!cls.empty()) model_->class_method_names.insert(name);
    return fn;
  }

  void ScanBody(size_t begin, size_t end, FunctionInfo* fn) {
    for (size_t k = begin; k < end && k < t_.size(); ++k) {
      if (!IsIdent(k)) continue;
      const std::string& s = Text(k);
      // Raw-buffer access patterns (wire-bounded-reads).
      if (s == "memcpy" || s == "memmove" || s == "reinterpret_cast") {
        fn->raw_accesses.push_back({s, "", false, Line(k)});
      } else if (s == "data" && Is(k + 1, "(") && Is(k + 2, ")") &&
                 Is(k + 3, "+")) {
        fn->raw_accesses.push_back({".data() +", "", false, Line(k)});
      } else if (s == "data_" && Is(k + 1, "[")) {
        fn->raw_accesses.push_back({"data_[", "", false, Line(k)});
      }
      if (s == "new") {
        fn->calls.push_back({"new", "", false, Line(k)});
        continue;
      }
      if (IsKeyword(s)) continue;
      size_t after = k + 1;
      if (TemplateCallName(s) && Is(after, "<")) after = SkipAngles(after);
      if (!Is(after, "(")) continue;
      CallSite c;
      c.name = s;
      c.line = Line(k);
      if (k > begin) {
        const std::string& prev = Text(k - 1);
        if (prev == "." || prev == "->") {
          c.member_access = true;
        } else if (prev == "::" && k >= 2 && IsIdent(k - 2)) {
          c.qualifier = Text(k - 2);
        }
      }
      fn->calls.push_back(c);
    }
  }

  /// A ';' ended a span at class scope: judge it as a member-variable
  /// declaration for guarded-by-complete. Method declarations never get
  /// here (HandleFunction consumes them), so anything with a bare call
  /// shape is macro noise we skip.
  void EndMemberSpan(size_t semi) {
    ClassInfo* cls = CurrentClassInfo();
    if (cls == nullptr) return;
    size_t b = decl_start_, e = semi;
    if (b >= e) return;
    bool has_mutex_type = false, exempt = false, annotated = false;
    bool call_shape = false;
    for (size_t k = b; k < e; ++k) {
      const std::string& s = Text(k);
      if (s == "Mutex" || (s == "mutex" && k >= 2 && Is(k - 1, "::"))) {
        has_mutex_type = true;
      }
      if (s == "Mutex" || s == "mutex" || s == "CondVar" ||
          s == "condition_variable" || s == "condition_variable_any" ||
          s == "atomic" || s == "static" || s == "constexpr") {
        exempt = true;
      }
      if (IsGuardAnnotation(s)) annotated = true;
      if (IsIdent(k) && !IsGuardAnnotation(s) && s.rfind("CSCE_", 0) != 0 &&
          Is(k + 1, "(")) {
        call_shape = true;
      }
    }
    if (has_mutex_type) cls->has_mutex = true;
    if (exempt || annotated || call_shape) return;
    // Declarator: the last trailing-underscore identifier followed by
    // the span end, '=', '{' or '[' (the project's member-name
    // convention; see DESIGN.md "Static analysis").
    for (size_t k = e; k-- > b;) {
      if (!IsIdent(k)) continue;
      const std::string& s = Text(k);
      if (s.size() < 2 || s.back() != '_') continue;
      if (k + 1 == e || Is(k + 1, "=") || Is(k + 1, "{") || Is(k + 1, "[")) {
        cls->unannotated.push_back({s, Line(k)});
        return;
      }
    }
  }

  const std::string path_;
  std::vector<Token> t_;
  SourceModel* model_;
  std::vector<Scope> stack_;
  size_t decl_start_ = 0;
};

}  // namespace

size_t SourceModel::Intern(const std::string& cls, const std::string& name,
                           const std::string& file, int line) {
  auto range = by_name.equal_range(name);
  for (auto it = range.first; it != range.second; ++it) {
    if (functions[it->second].cls == cls) return it->second;
  }
  FunctionInfo fn;
  fn.name = name;
  fn.cls = cls;
  fn.file = file;
  fn.line = line;
  functions.push_back(std::move(fn));
  by_name.emplace(name, functions.size() - 1);
  return functions.size() - 1;
}

void ParseFile(const std::string& path, const std::string& text,
               SourceModel* model) {
  Parser(path, Lex(text), model).Run();
}

}  // namespace csce_lint
