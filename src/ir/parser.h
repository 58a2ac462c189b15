// ESD IR: textual assembly parser.
//
// Grammar (line oriented; ';' outside a string literal starts a comment):
//
//   global $name = zero <size>
//   global $name = str "text"            // NUL-terminated
//   global $name = bytes <size> [b0 b1 ...]
//   extern @name(i32, ptr) : i32
//   func @name(%a: i32, %p: ptr) : i32 {
//   label:
//     %x = add %a, i32 1
//     %c = icmp eq %x, i32 5
//     condbr %c, then, else
//     ...
//   }
//
// Operands: %reg, typed literals ("i32 42", negative allowed), "null"
// (ptr 0), @function (function address), $global (global address).
// A literal must lie in [-2^63, 2^64 - 1]; sizes (global, bytes, alloca)
// and gep scales in [1, 2^32 - 1]. Each instruction must also meet what
// FunctionBuilder asserts (operand types, ptr addresses, i1 conditions,
// cast widths, nothing after a block's terminator); text that does not is
// a one-line error, never an assert.
//
// The parse is linear in the text. Lines and tokens are views into `text`;
// the module keeps none of them.
#ifndef ESD_SRC_IR_PARSER_H_
#define ESD_SRC_IR_PARSER_H_

#include <string>
#include <string_view>

#include "src/ir/module.h"

namespace esd::ir {

struct ParseResult {
  bool ok = false;
  std::string error;  // "line N: message" when !ok.
};

// Parses `text` into `module` (which should be empty). On failure the module
// contents are unspecified.
ParseResult ParseModule(std::string_view text, Module* module);

// Parses `prelude` and then `text` into `module`, giving the module that
// parsing their concatenation gives (`prelude` must end at a line end), but
// an error in `text` names its line in `text`.
ParseResult ParseModule(std::string_view prelude, std::string_view text,
                        Module* module);

}  // namespace esd::ir

#endif  // ESD_SRC_IR_PARSER_H_
